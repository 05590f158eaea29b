package cache

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
)

// TestStoreImplementsCtxRunCache asserts the store satisfies the
// context-aware core.RunCache and attributes operations to the context's
// trace ID in the debug log.
func TestStoreImplementsCtxRunCache(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, err := Open(t.TempDir(), Options{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	var _ core.RunCache = s

	cfg := core.RunConfig{Cycles: 123}
	key, err := core.RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithTraceID(context.Background(), "r-cachetest")

	if _, ok := s.Lookup(ctx, key); ok {
		t.Fatal("lookup hit on empty store")
	}
	s.Store(ctx, key, []byte(`{}`), &core.CachedRun{Result: &core.RunResult{Config: cfg}})
	if _, ok := s.Lookup(ctx, key); !ok {
		t.Fatal("lookup missed after store")
	}

	out := logBuf.String()
	for _, want := range []string{"cache miss", "cache store", "cache hit", "r-cachetest"} {
		if !strings.Contains(out, want) {
			t.Errorf("debug log missing %q:\n%s", want, out)
		}
	}
}
