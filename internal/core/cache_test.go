package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"nepdvs/internal/obs"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// memCache is a minimal in-memory RunCache for exercising the core hook.
type memCache struct {
	mu      sync.Mutex
	entries map[string][]byte // marshaled CachedRun, to force the JSON round trip
	hits    int
	stores  int
}

func newMemCache() *memCache { return &memCache{entries: make(map[string][]byte)} }

func (m *memCache) Lookup(_ context.Context, key string) (*CachedRun, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	var cr CachedRun
	if err := json.Unmarshal(b, &cr); err != nil {
		return nil, false
	}
	m.hits++
	return &cr, true
}

func (m *memCache) Store(_ context.Context, key string, material []byte, cr *CachedRun) {
	b, err := json.Marshal(cr)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[key] = b
	m.stores++
}

func cacheTestConfig(t *testing.T) RunConfig {
	t.Helper()
	cfg, err := DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 300_000
	cfg.Policy = TDVSPolicy(1000, 40000)
	cfg.Formulas = PowerFormula(20, 0.5, 2.25, 0.05)
	return cfg
}

func TestRunKeyStability(t *testing.T) {
	cfg := cacheTestConfig(t)
	k1, err := RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equal configs produced different keys: %s vs %s", k1, k2)
	}

	// Observation-only fields do not change the key.
	withTimeout := cfg
	withTimeout.Timeout = time.Minute
	withTimeout.Metrics = obs.NewRegistry()
	k3, err := RunKey(withTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Error("timeout/metrics changed the run key")
	}

	// Anything simulation-relevant does.
	for name, mutate := range map[string]func(*RunConfig){
		"seed":      func(c *RunConfig) { c.Traffic.Seed++ },
		"cycles":    func(c *RunConfig) { c.Cycles++ },
		"threshold": func(c *RunConfig) { c.Policy = TDVSPolicy(1100, 40000) },
		"formulas":  func(c *RunConfig) { c.Formulas = "" },
	} {
		mod := cfg
		mutate(&mod)
		k, err := RunKey(mod)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("changing %s did not change the run key", name)
		}
	}
}

// TestRunKeyPolicyCanonicalization pins the registry-era key semantics: a
// policy spelled through a legacy alias, or with its optional defaults
// written out, hits the same content address as the canonical spelling —
// while a genuinely different policy or parameter value misses.
func TestRunKeyPolicyCanonicalization(t *testing.T) {
	base := cacheTestConfig(t)
	base.Policy = TDVSPolicy(1000, 40000) // canonical name, defaults elided
	k1, err := RunKey(base)
	if err != nil {
		t.Fatal(err)
	}

	for name, pol := range map[string]PolicyConfig{
		"legacy alias": NewPolicy("TDVS", map[string]float64{
			"top_threshold_mbps": 1000, "window_cycles": 40000,
		}),
		"explicit default": NewPolicy("tdvs", map[string]float64{
			"top_threshold_mbps": 1000, "window_cycles": 40000, "hysteresis": 0,
		}),
	} {
		mod := base
		mod.Policy = pol
		k, err := RunKey(mod)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k != k1 {
			t.Errorf("%s spelling missed the canonical content address", name)
		}
	}

	for name, pol := range map[string]PolicyConfig{
		"different policy":  NewPolicy("pid", nil),
		"different default": NewPolicy("tdvs", map[string]float64{"top_threshold_mbps": 1000, "window_cycles": 40000, "hysteresis": 0.1}),
		"no policy":         {},
	} {
		mod := base
		mod.Policy = pol
		k, err := RunKey(mod)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("%s collided with the tdvs content address", name)
		}
	}
}

// TestRunKeySchemaStamp pins the schema version into the key material: the
// witness work bumped it to 3 so every pre-witness cache entry misses
// rather than replaying a result without provenance or loc_* metrics.
func TestRunKeySchemaStamp(t *testing.T) {
	b, err := RunKeyMaterial(cacheTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatalf("key material is not JSON: %q", b)
	}
	var m struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != 3 {
		t.Errorf("key material schema = %d, want 3 (bump TestRunKeySchemaStamp alongside any deliberate schema change)", m.Schema)
	}
}

func TestRunCacheHitSkipsSimulation(t *testing.T) {
	cfg := cacheTestConfig(t)
	c := newMemCache()
	SetRunCache(c)
	defer SetRunCache(nil)

	var runs int
	SetRunHook(func(time.Duration, error) { runs++ })
	defer SetRunHook(nil)

	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || c.stores != 1 {
		t.Fatalf("after miss: runs=%d stores=%d, want 1/1", runs, c.stores)
	}

	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("cache hit fired the run hook: %d simulations", runs)
	}
	if c.hits != 1 {
		t.Errorf("hits = %d, want 1", c.hits)
	}

	// The served result is byte-identical to the fresh one.
	fb, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(sb) {
		t.Error("cached result differs from the fresh run")
	}
	if second.Stats.AvgPowerW != first.Stats.AvgPowerW {
		t.Error("cached stats differ")
	}
	if len(second.LOC) != len(first.LOC) {
		t.Fatalf("cached LOC results: %d, want %d", len(second.LOC), len(first.LOC))
	}
}

func TestRunCacheReplaysMetrics(t *testing.T) {
	cfg := cacheTestConfig(t)
	c := newMemCache()
	SetRunCache(c)
	defer SetRunCache(nil)

	live := obs.NewRegistry()
	withMetrics := cfg
	withMetrics.Metrics = live
	if _, err := Run(withMetrics); err != nil {
		t.Fatal(err)
	}
	liveSnap := live.Snapshot()

	replayed := obs.NewRegistry()
	withMetrics.Metrics = replayed
	if _, err := Run(withMetrics); err != nil {
		t.Fatal(err)
	}
	if c.hits != 1 {
		t.Fatalf("hits = %d, want 1", c.hits)
	}
	a, err := json.Marshal(liveSnap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(replayed.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("replayed metrics differ from live publish:\n%s\n%s", a, b)
	}
}

func TestRunCacheBypassedByExtraSink(t *testing.T) {
	cfg := cacheTestConfig(t)
	cfg.Formulas = ""
	cfg.ExtraSink = trace.DiscardSink{}
	c := newMemCache()
	SetRunCache(c)
	defer SetRunCache(nil)

	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if c.stores != 0 || c.hits != 0 {
		t.Errorf("ExtraSink run touched the cache: stores=%d hits=%d", c.stores, c.hits)
	}
}

// TestSweepDefaultParallelism pins the parallelism<=0 convention: a sweep
// and a batch must complete (one worker per CPU) rather than deadlock on an empty
// semaphore.
func TestSweepDefaultParallelism(t *testing.T) {
	cfg := cacheTestConfig(t)
	cfg.Formulas = ""
	cfg.Cycles = 100_000
	for _, p := range []int{0, -3} {
		rs, err := SweepTDVS(cfg, []float64{1000}, []int64{40000}, p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(rs) != 1 || rs[0].Result == nil {
			t.Fatalf("parallelism %d: bad results %+v", p, rs)
		}
	}
	for _, r := range RunBatch(context.Background(), []RunConfig{cfg, cfg}, 0, nil) {
		if r.Err != nil {
			t.Fatalf("batch with default parallelism: %v", r.Err)
		}
	}
}
