package federation

import (
	"context"

	"nepdvs/internal/jobs"
)

// Executor adapts a pool into the job queue's executor: sweep jobs fan
// out across the cluster, everything else (and every job on a pool with
// no remote members) runs through the ordinary local jobs.Execute. A
// federated sweep goes through the same jobs.ExecuteSweep as a local one,
// with the pool's runner and parallelism, which is the byte-identity
// contract.
func Executor(p *Pool) jobs.Executor {
	return func(ctx context.Context, spec jobs.Spec, progress func(done, retries int)) (any, error) {
		if p == nil || spec.Kind != jobs.KindSweep || !p.hasRemote() {
			return jobs.Execute(ctx, spec, progress)
		}
		return jobs.ExecuteSweep(ctx, spec, p.parallelism, p.runPoint, progress)
	}
}

// hasRemote reports whether the pool has anyone to federate with.
func (p *Pool) hasRemote() bool {
	for _, m := range p.members {
		if !m.Local() {
			return true
		}
	}
	return false
}
