package core

import (
	"sync/atomic"
	"time"
)

// RunHook observes every completed Run — successful or not — with the
// wall-clock time it took and its error, if any. Hooks see every run,
// including the ones spawned internally by RunBatch and Sweep, which
// makes them the one place to hang live progress reporting and per-run
// wall-time metrics without threading a callback through every sweep layer.
// Cache hits (SetRunCache) are not runs and do not fire the hook: the
// runs-completed counter counts simulations actually performed, which is
// what lets tests assert a cached sweep simulated nothing.
//
// Wall time is inherently non-deterministic; hooks must not feed it into
// anything that is required to be byte-stable across runs (see obs package
// doc). Hooks may be called concurrently from sweep workers.
type RunHook func(wall time.Duration, err error)

var runHook atomic.Pointer[RunHook]

// SetRunHook installs h as the process-wide run observer, replacing any
// previous hook. Passing nil removes the hook. Safe to call concurrently
// with in-flight runs: runs that already started keep the hook they loaded.
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
