// Package jobs is the execution layer of the exploration service: a bounded
// priority queue feeding a worker pool that runs simulations through
// internal/core. It owns everything between "a request arrived" and "the
// artifact exists" — admission control (backpressure when full), dedup of
// identical in-flight work (singleflight on the spec's content key),
// cancellation, per-job progress, and checkpoint/resume so a restarted
// daemon picks pending work back up.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"nepdvs/internal/core"
	"nepdvs/internal/loc"
)

// Kind discriminates what a job executes.
type Kind string

const (
	// KindRun simulates one configuration.
	KindRun Kind = "run"
	// KindSweep sweeps a TDVS (threshold, window) grid.
	KindSweep Kind = "sweep"
)

// SweepSpec is the grid half of a sweep job.
type SweepSpec struct {
	Thresholds []float64 `json:"thresholds"`
	Windows    []int64   `json:"windows"`
	// Parallelism bounds concurrent points inside this one job; zero or
	// below means runtime.NumCPU() (core.Parallelism). It does not
	// participate in the dedup key.
	Parallelism int `json:"parallelism,omitempty"`
}

// Spec describes one unit of work. It is the wire format clients POST and
// the checkpoint format pending jobs persist as.
type Spec struct {
	Kind   Kind           `json:"kind"`
	Config core.RunConfig `json:"config"`
	Sweep  *SweepSpec     `json:"sweep,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities run in
	// submission order. It does not participate in the dedup key — an
	// urgent request for work already queued attaches to the existing job.
	Priority int `json:"priority,omitempty"`
	// TraceID names the client interaction that submitted this work, for
	// log and timeline attribution (the server fills it from X-Request-ID).
	// Like Priority it is not content: it never participates in the dedup
	// key, so a resubmission under a new trace ID attaches to the existing
	// job (which keeps its original ID).
	TraceID string `json:"trace_id,omitempty"`
}

// Validate rejects specs the queue would only fail on later.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindRun:
		if s.Sweep != nil {
			return fmt.Errorf("jobs: run spec carries a sweep grid")
		}
	case KindSweep:
		if s.Sweep == nil {
			return fmt.Errorf("jobs: sweep spec missing grid")
		}
		if len(s.Sweep.Thresholds) == 0 || len(s.Sweep.Windows) == 0 {
			return fmt.Errorf("jobs: sweep grid is empty")
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q", s.Kind)
	}
	if s.Config.ExtraSink != nil || s.Config.Metrics != nil || s.Config.Spans != nil || s.Config.WallMetrics != nil {
		return fmt.Errorf("jobs: spec config must be serializable (no sinks, registries or recorders)")
	}
	// Assertion sets are statically analyzed at admission against the exact
	// trace schema of the spec's chip: a vacuous or tautological formula
	// would burn a full simulation to produce an empty claim, so it is
	// rejected here, where the submitter still has the context to fix it.
	if s.Config.Formulas != "" {
		diags, parsed := loc.AnalyzeFile(s.Config.Formulas, core.EventSchemaFor(s.Config.Chip))
		if !parsed {
			return fmt.Errorf("jobs: formulas do not parse: %s", diags[0])
		}
		if len(diags) > 0 {
			msgs := make([]string, len(diags))
			for i, d := range diags {
				msgs[i] = d.String()
			}
			return fmt.Errorf("jobs: formulas fail static analysis:\n%s", strings.Join(msgs, "\n"))
		}
	}
	return nil
}

// Points expands a sweep grid in the canonical threshold-major order.
func (s SweepSpec) Points() int { return len(s.Thresholds) * len(s.Windows) }

// keySpec is Spec minus the fields that must not affect identity. Priority
// and a sweep's Parallelism are scheduling, not content: two requests for
// the same work at different priorities or parallelism dedup onto one job,
// whose artifact is the same bytes either way.
type keySpec struct {
	Kind   Kind           `json:"kind"`
	Config core.RunConfig `json:"config"`
	Sweep  *SweepSpec     `json:"sweep,omitempty"`
}

// Key is the spec's content address: hex SHA-256 of its canonical JSON.
// Identical submissions share a key, which is what the queue's singleflight
// dedup collapses on.
func (s Spec) Key() (string, error) {
	sweep := s.Sweep
	if sweep != nil && sweep.Parallelism != 0 {
		grid := *sweep
		grid.Parallelism = 0
		sweep = &grid
	}
	b, err := json.Marshal(keySpec{Kind: s.Kind, Config: s.Config, Sweep: sweep})
	if err != nil {
		return "", fmt.Errorf("jobs: spec key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
