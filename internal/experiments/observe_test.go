package experiments

import (
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func TestObserveRuns(t *testing.T) {
	reg := obs.NewRegistry()
	var calls int
	var sawFailed bool
	remove := ObserveRuns(reg, func(wall time.Duration, failed bool) {
		calls++
		if failed {
			sawFailed = true
		}
	})
	defer remove()

	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelLow, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 100_000
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Cycles = 0
	if _, err := core.Run(bad); err == nil {
		t.Fatal("invalid config unexpectedly ran")
	}

	if calls != 2 || !sawFailed {
		t.Fatalf("hook saw %d calls (failed seen: %v), want 2 with one failure", calls, sawFailed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["experiments_runs_completed"]; got != 1 {
		t.Errorf("runs_completed = %d, want 1", got)
	}
	if got := snap.Counters["experiments_runs_failed"]; got != 1 {
		t.Errorf("runs_failed = %d, want 1", got)
	}
	if h, ok := snap.Histograms["experiments_run_wall_ms"]; !ok || h.Count != 2 {
		t.Errorf("wall histogram = %+v, want 2 observations", h)
	}

	remove()
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("hook fired after removal: %d calls", calls)
	}
}
