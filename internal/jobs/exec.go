package jobs

import (
	"context"
	"fmt"
	"sync"

	"nepdvs/internal/core"
)

// Execute is the real executor: it runs a spec through internal/core and
// returns the artifact to store. progress, when non-nil, receives the
// running count of completed points (1 for a plain run) and of retries
// spent. Both the job queue and anything driving specs directly (tests,
// batch tools) use this one function, so service results and local results
// are the same bytes.
func Execute(ctx context.Context, spec Spec, progress func(done, retries int)) (any, error) {
	switch spec.Kind {
	case KindRun:
		res, err := core.RunContext(ctx, spec.Config)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(1, 0)
		}
		return &RunArtifact{Result: res}, nil
	case KindSweep:
		var mu sync.Mutex
		done, retries := 0, 0
		onPoint := func(r core.SweepResult) {
			mu.Lock()
			done++
			retries += r.Retries
			d, rt := done, retries
			mu.Unlock()
			if progress != nil {
				progress(d, rt)
			}
		}
		results, err := core.Sweep(ctx, spec.Config, spec.Sweep.Thresholds, spec.Sweep.Windows, spec.Sweep.Parallelism, onPoint)
		if results == nil {
			return nil, err
		}
		// Partial failure still yields an artifact; the failed points carry
		// their errors inside it, which is the sweep's own resilience
		// contract (see core.Sweep).
		return NewSweepArtifact(results), nil
	}
	return nil, fmt.Errorf("jobs: unknown kind %q", spec.Kind)
}
