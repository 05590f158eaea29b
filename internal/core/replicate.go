package core

import (
	"context"
	"fmt"
	"math"

	"nepdvs/internal/stats"
)

// Replication aggregates one scalar metric across independent traffic
// realizations (seeds).
type Replication struct {
	Seeds  []int64
	Values []float64
}

// Mean returns the across-seed mean.
func (r Replication) Mean() float64 {
	if len(r.Values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range r.Values {
		s += v
	}
	return s / float64(len(r.Values))
}

// StdDev returns the across-seed sample standard deviation (n-1), or 0 for
// a single seed.
func (r Replication) StdDev() float64 {
	n := len(r.Values)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return 0
	}
	m := r.Mean()
	var ss float64
	for _, v := range r.Values {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(n-1))
}

// String renders "mean ± sd".
func (r Replication) String() string {
	return fmt.Sprintf("%.3f ± %.3f", r.Mean(), r.StdDev())
}

// SeedFailure records one traffic seed whose replicated run failed (after
// a retry).
type SeedFailure struct {
	Seed int64
	Err  error
}

// ReplicatedResult carries the per-seed runs plus the headline metrics.
type ReplicatedResult struct {
	// Runs holds one entry per requested seed, in seed order; a seed whose
	// run failed leaves a nil entry and a record in Failures.
	Runs     []*RunResult
	PowerW   Replication
	SentMbps Replication
	LossFrac Replication
	// MergedDists pools each LOC distribution formula's samples across all
	// seeds (keyed by formula name), giving the across-realization
	// distribution the paper's single-trace analyzers cannot provide.
	MergedDists map[string]*stats.Histogram
	// Failures lists the seeds whose runs failed; the headline replications
	// aggregate the surviving seeds only.
	Failures []SeedFailure
}

// Replicate runs the same configuration under each traffic seed in
// parallel and aggregates the headline metrics. The config's own traffic
// seed is ignored; Packets must be nil (a fixed schedule has nothing to
// replicate over). A parallelism of zero or below means runtime.NumCPU(),
// matching SweepTDVS.
//
// Replication tolerates partial failure: a seed whose run fails (each
// worker retries once) is recorded in Failures and excluded from the
// aggregates while the other seeds merge normally. Only when every seed
// fails does Replicate return an error.
func Replicate(cfg RunConfig, seeds []int64, parallelism int) (*ReplicatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no seeds to replicate over")
	}
	if cfg.Packets != nil {
		return nil, fmt.Errorf("core: cannot replicate a fixed packet schedule")
	}
	out := &ReplicatedResult{Runs: make([]*RunResult, len(seeds))}
	errs := make([]error, len(seeds))
	ForEach(len(seeds), parallelism, func(i int) {
		c := cfg
		c.Traffic.Seed = seeds[i]
		out.Runs[i], _, errs[i] = RunWithRetry(context.Background(), c)
	})
	for i, err := range errs {
		if err != nil {
			out.Failures = append(out.Failures, SeedFailure{Seed: seeds[i], Err: err})
		}
	}
	if len(out.Failures) == len(seeds) {
		return nil, fmt.Errorf("core: all %d replication seeds failed (first: seed %d: %w)",
			len(seeds), out.Failures[0].Seed, out.Failures[0].Err)
	}
	for i, r := range out.Runs {
		if r == nil {
			continue
		}
		out.PowerW.Seeds = append(out.PowerW.Seeds, seeds[i])
		out.SentMbps.Seeds = append(out.SentMbps.Seeds, seeds[i])
		out.LossFrac.Seeds = append(out.LossFrac.Seeds, seeds[i])
	}
	for _, r := range out.Runs {
		if r == nil {
			continue
		}
		out.PowerW.Values = append(out.PowerW.Values, r.Stats.AvgPowerW)
		out.SentMbps.Values = append(out.SentMbps.Values, r.Stats.SentMbps())
		out.LossFrac.Values = append(out.LossFrac.Values, r.Stats.LossFrac())
		for _, lr := range r.LOC {
			if lr.Dist == nil {
				continue
			}
			if out.MergedDists == nil {
				out.MergedDists = make(map[string]*stats.Histogram)
			}
			h := lr.Dist.Hist
			acc, ok := out.MergedDists[lr.Name]
			if !ok {
				acc, err := stats.NewHistogram(h.Min, h.Max, h.Step)
				if err != nil {
					return nil, err
				}
				out.MergedDists[lr.Name] = acc
				if err := acc.Merge(h); err != nil {
					return nil, err
				}
				continue
			}
			if err := acc.Merge(h); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
