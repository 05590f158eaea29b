package cache

import (
	"context"
	"testing"

	"nepdvs/internal/core"
)

// TestStoreImplementsCtxRunCache asserts the store satisfies the
// context-aware core.RunCache and round-trips an entry through it.
func TestStoreImplementsCtxRunCache(t *testing.T) {
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
	ctx := context.Background()
	if _, ok := s.Lookup(ctx, key); ok {
		t.Fatal("lookup hit on empty store")
	}
	s.Store(ctx, key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{Config: cfg}})
	cr, ok := s.Lookup(ctx, key)
	if !ok {
		t.Fatal("lookup missed after store")
	}
	if cr.Result.Config.Cycles != cfg.Cycles {
		t.Errorf("served config has %d cycles, want %d", cr.Result.Config.Cycles, cfg.Cycles)
	}
}
