package cache

import (
	"context"
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
	core.SetRunCache(s)
	defer core.SetRunCache(nil)

	cfg := testConfig(t)
	fresh, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := counters(reg)
	if c["cache_misses"] != 1 || c["cache_stores"] != 1 {
		t.Fatalf("after first run: %v, want 1 miss + 1 store", c)
	}

	cached, err := core.Run(cfg)
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
	core.SetRunCache(s)
	defer core.SetRunCache(nil)

	cfg := testConfig(t)
	if _, err := core.Run(cfg); err != nil {
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

	if _, ok := s.Lookup(context.Background(), key); ok {
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
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(context.Background(), key); !ok {
		t.Error("entry not restored after corruption recovery")
	}
}

// Oldest entries are evicted first once MaxEntries is exceeded.
func TestStoreEviction(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{Registry: reg, MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}

	mk := func(i int) string {
		key := fmt.Sprintf("%064x", i+1)
		s.Store(context.Background(), key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{}})
		return key
	}
	k1, k2, k3 := mk(1), mk(2), mk(3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, k1+".json")); !os.IsNotExist(err) {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range []string{k2, k3} {
		if _, err := os.Stat(filepath.Join(dir, k+".json")); err != nil {
			t.Errorf("entry %s missing: %v", k[:8], err)
		}
	}
	c := counters(reg)
	if c["cache_evictions"] != 1 {
		t.Errorf("cache_evictions = %d, want 1", c["cache_evictions"])
	}
}

// Reopening a directory restores the inventory, and entries survive across
// store instances.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%064x", 42)
	s.Store(context.Background(), key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{}})

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	if _, ok := s2.Lookup(context.Background(), key); !ok {
		t.Error("entry not readable after reopen")
	}
}

// Concurrent stores and lookups must be race-free (run under -race) and
// keep Len within bounds.
func TestStoreConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Registry: reg, MaxEntries: 8})
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
				s.Store(context.Background(), key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{}})
				s.Lookup(context.Background(), key)
			}
		}()
	}
	wg.Wait()
	if n := s.Len(); n > 8 {
		t.Errorf("Len = %d, want <= 8", n)
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
		if _, ok := s.Lookup(context.Background(), key); ok {
			t.Errorf("Lookup(%q) hit", key)
		}
		s.Store(context.Background(), key, nil, &core.CachedRun{Result: &core.RunResult{}})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("bad keys created %d files", len(entries))
	}
}
