package core

import (
	"sync/atomic"
	"time"
)

// RunHook observes every completed Run — successful or not — with the
// wall-clock time it took and its error, if any. Hooks see every run,
// including each attempt RunBatch makes, which makes them the one place to
// hang live progress reporting and per-run wall-time metrics without
// threading a callback through every batch layer. Cache hits (RunCached)
// are not runs and do not fire the hook: the runs-completed counter counts
// simulations actually performed, which is what lets tests assert a cached
// batch simulated nothing.
//
// Wall time is inherently non-deterministic; hooks must not feed it into
// anything that is required to be byte-stable across runs (see obs package
// doc). Hooks may be called concurrently from batch workers.
type RunHook func(wall time.Duration, err error)

var runHook atomic.Pointer[RunHook]

// SetRunHook installs h as the process-wide run observer, replacing any
// previous hook. Passing nil removes the hook. Safe to call concurrently
// with in-flight runs: runs that already started keep the hook they loaded.
//
// The hook is core's one process-wide setting, unlike the run cache, which
// callers pass to RunCached and RunBatch. A global is harmless here because
// a hook only observes: it never changes what a run returns. It stays a
// setter rather than an argument because observers (experiments.ObserveRuns,
// the perfbench harness) watch runs started several layers below them.
func SetRunHook(h RunHook) {
	if h == nil {
		runHook.Store(nil)
		return
	}
	runHook.Store(&h)
}

// loadRunHook returns the installed hook, or nil.
func loadRunHook() RunHook {
	if p := runHook.Load(); p != nil {
		return *p
	}
	return nil
}
