package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func testConfig(t *testing.T) core.RunConfig {
	t.Helper()
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 300_000
	cfg.Policy = core.TDVSPolicy(1000, 40000)
	cfg.Formulas = core.PowerFormula(20, 0.5, 2.25, 0.05)
	return cfg
}

func counters(reg *obs.Registry) map[string]uint64 {
	return reg.Snapshot().Counters
}

// The headline determinism property: a result served from disk is
// byte-identical to the freshly simulated one.
func TestStoreHitMatchesFreshRun(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	fresh, err := core.RunCached(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	c := counters(reg)
	if c["cache_misses"] != 1 || c["cache_stores"] != 1 {
		t.Fatalf("after first run: %v, want 1 miss + 1 store", c)
	}

	cached, err := core.RunCached(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	c = counters(reg)
	if c["cache_hits"] != 1 {
		t.Fatalf("after second run: %v, want 1 hit", c)
	}

	fb, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(cached)
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(cb) {
		t.Error("cached result is not byte-identical to the fresh run")
	}
}

// A corrupted entry must be detected by checksum, counted, deleted, and
// treated as a miss — never served.
func TestStoreCorruptionDetected(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	if _, err := core.RunCached(cfg, s); err != nil {
		t.Fatal(err)
	}
	key, err := core.RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the payload (find a digit in the payload section
	// and change it) without breaking the JSON envelope.
	var fe fileEntry
	if err := json.Unmarshal(b, &fe); err != nil {
		t.Fatal(err)
	}
	mutated := []byte(string(fe.Payload))
	done := false
	for i, ch := range mutated {
		if ch >= '1' && ch <= '8' {
			mutated[i] = ch + 1
			done = true
			break
		}
	}
	if !done {
		t.Fatal("no mutable byte found in payload")
	}
	fe.Payload = mutated
	nb, err := json.Marshal(fe)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nb, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Lookup(key); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	c := counters(reg)
	if c["cache_errors"] != 1 {
		t.Errorf("cache_errors = %d, want 1", c["cache_errors"])
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupted entry not deleted")
	}
	// The store stays usable: the next run re-simulates and re-stores.
	if _, err := core.RunCached(cfg, s); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(key); !ok {
		t.Error("entry not restored after corruption recovery")
	}
}

// Entries survive across store instances over one directory.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%064x", 42)
	s.Store(key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{}})

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if entryCount(s2) != 1 {
		t.Fatalf("reopened entry count = %d, want 1", entryCount(s2))
	}
	if _, ok := s2.Lookup(key); !ok {
		t.Error("entry not readable after reopen")
	}
}

// A killed writer leaves an atomic-write temp behind; Open removes it and
// keeps the intact entries.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%064x", 7)
	s.Store(key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{}})
	stale := filepath.Join(dir, "."+key+".json.tmp-123456")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	if _, ok := s2.Lookup(key); !ok || entryCount(s2) != 1 {
		t.Errorf("after the sweep: entry readable %v, %d entries, want true, 1", ok, entryCount(s2))
	}
}

// Concurrent stores and lookups must be race-free (run under -race) and
// leave one entry per distinct key.
func TestStoreConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				key := fmt.Sprintf("%060x%04x", g, i)
				s.Store(key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{}})
				s.Lookup(key)
			}
		}()
	}
	wg.Wait()
	if n := entryCount(s); n != 128 {
		t.Errorf("entry count = %d, want 128", n)
	}
	sum := s.Summary()
	if sum.Stores != 128 {
		t.Errorf("stores = %d, want 128", sum.Stores)
	}
}

// Invalid keys never touch the filesystem.
func TestStoreRejectsBadKeys(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../etc/passwd", string(make([]byte, 64))} {
		if _, ok := s.Lookup(key); ok {
			t.Errorf("Lookup(%q) hit", key)
		}
		s.Store(key, nil, &core.CachedRun{Result: &core.RunResult{}})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("bad keys created %d files", len(entries))
	}
}

// TestStoreImplementsRunCache asserts the store satisfies core.RunCache and
// round-trips an entry through it.
func TestStoreImplementsRunCache(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var _ core.RunCache = s

	cfg := core.RunConfig{Cycles: 123}
	key, err := core.RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(key); ok {
		t.Fatal("lookup hit on empty store")
	}
	s.Store(key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{Config: cfg}})
	cr, ok := s.Lookup(key)
	if !ok {
		t.Fatal("lookup missed after store")
	}
	if cr.Result.Config.Cycles != cfg.Cycles {
		t.Errorf("served config has %d cycles, want %d", cr.Result.Config.Cycles, cfg.Cycles)
	}
}

// entryCount counts the entry files in the store's directory; entries are
// not validated.
func entryCount(s *Store) int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if _, ok := keyFromName(e.Name()); ok && !e.IsDir() {
			n++
		}
	}
	return n
}
