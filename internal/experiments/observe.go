package experiments

import (
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
)

// ObserveRuns installs a process-wide core run hook that feeds per-run
// observability: every completed simulation run increments
// experiments_runs_completed (or experiments_runs_failed) and records its
// wall time in the experiments_run_wall_ms histogram of reg. onRun, when
// non-nil, additionally fires per run — the place to hang a live progress
// display. Either reg or onRun may be nil. The returned function removes
// the hook; callers must invoke it before installing another observer.
//
// Wall times are real-clock measurements and therefore non-deterministic;
// they belong in manifests and progress output, never in surfaces required
// to be byte-stable across runs.
func ObserveRuns(reg *obs.Registry, onRun func(wall time.Duration, failed bool)) (remove func()) {
	var completed, failed *obs.Counter
	var wall *obs.Histogram
	if reg != nil {
		completed = reg.Counter("experiments_runs_completed")
		failed = reg.Counter("experiments_runs_failed")
		// 1 ms to ~64 s in doublings: spans a trivial smoke run to a full
		// 8M-cycle simulation.
		wall = reg.Histogram("experiments_run_wall_ms", obs.ExponentialEdges(1, 2, 17))
	}
	core.SetRunHook(func(d time.Duration, err error) {
		if reg != nil {
			if err != nil {
				failed.Inc()
			} else {
				completed.Inc()
			}
			wall.Observe(float64(d) / float64(time.Millisecond))
		}
		if onRun != nil {
			onRun(d, err != nil)
		}
	})
	return func() { core.SetRunHook(nil) }
}
