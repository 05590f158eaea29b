// Package perf defines the canonical benchmark-trajectory schema the
// repository's performance observability is built on: one versioned JSON
// document per benchmark suite holding, for every benchmark, its repeated
// host-time samples (ns/op, B/op, allocs/op) and domain throughput
// (simulated cycles/sec, packets/sec), aggregated as median/min/max, plus
// an environment fingerprint of the toolchain and machine that produced
// them. The committed BENCH_*.json files are points on this trajectory;
// cmd/benchdiff compares two points with noise-aware thresholds so CI can
// gate on them.
//
// The schema is deliberately small and explicit: samples are kept raw (not
// just aggregates) so a later reader can re-aggregate with a different
// statistic, and the schema version is checked on read so a gate never
// silently compares incompatible documents. Unlike the obs package's
// deterministic snapshots, trajectory values are wall-clock measurements
// and inherently noisy; the aggregation and the diff thresholds exist to
// make them usable anyway.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"nepdvs/internal/obs"
)

// SchemaVersion is the current trajectory document version. Readers reject
// documents with any other version: a perf gate must fail loudly rather
// than compare fields that changed meaning.
const SchemaVersion = 1

// Env fingerprints the toolchain and machine a trajectory point was
// measured on. Comparing points across differing fingerprints is allowed —
// CI runners drift — but the diff reports the mismatch so a "regression"
// can be recognized as a machine change.
type Env struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// CurrentEnv fingerprints the running process's environment.
func CurrentEnv() Env {
	return Env{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Diff lists the fields in which e and o differ, as "field: a vs b"
// strings, empty when the fingerprints match.
func (e Env) Diff(o Env) []string {
	var out []string
	if e.GoVersion != o.GoVersion {
		out = append(out, fmt.Sprintf("go_version: %s vs %s", e.GoVersion, o.GoVersion))
	}
	if e.GOOS != o.GOOS {
		out = append(out, fmt.Sprintf("goos: %s vs %s", e.GOOS, o.GOOS))
	}
	if e.GOARCH != o.GOARCH {
		out = append(out, fmt.Sprintf("goarch: %s vs %s", e.GOARCH, o.GOARCH))
	}
	if e.NumCPU != o.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu: %d vs %d", e.NumCPU, o.NumCPU))
	}
	return out
}

// Stat aggregates one metric's repeat samples. Samples are kept in
// measurement order; Median/Min/Max are computed over them at build time.
// The median is what diffs gate on — it is robust to the one-slow-sample
// noise a shared CI runner produces — and Min is the "best observed"
// number optimization work quotes.
type Stat struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// NewStat aggregates samples into a Stat. Passing no samples yields the
// zero Stat.
func NewStat(samples []float64) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	s := Stat{Samples: append([]float64(nil), samples...)}
	ordered := append([]float64(nil), samples...)
	sort.Float64s(ordered)
	s.Min = ordered[0]
	s.Max = ordered[len(ordered)-1]
	if n := len(ordered); n%2 == 1 {
		s.Median = ordered[n/2]
	} else {
		s.Median = (ordered[n/2-1] + ordered[n/2]) / 2
	}
	return s
}

// Count reports how many samples back the aggregate.
func (s Stat) Count() int { return len(s.Samples) }

// Benchmark is one benchmark's aggregated metrics. The host-time metrics
// are always present; the Sim* throughputs are only set for benchmarks
// that drive actual simulations (a stub-executor service benchmark has no
// simulated cycles to count).
type Benchmark struct {
	NsPerOp     Stat `json:"ns_per_op"`
	BytesPerOp  Stat `json:"bytes_per_op"`
	AllocsPerOp Stat `json:"allocs_per_op"`
	// SimCyclesPerSec is domain throughput: simulated reference-clock
	// cycles completed per wall-clock second.
	SimCyclesPerSec *Stat `json:"sim_cycles_per_sec,omitempty"`
	// SimPacketsPerSec is domain throughput: simulated packets forwarded
	// into the chip per wall-clock second.
	SimPacketsPerSec *Stat `json:"sim_packets_per_sec,omitempty"`
}

// Trajectory is one point of a benchmark suite's performance history — the
// document committed as BENCH_sim.json / BENCH_serve.json (and written,
// uncommitted, as BENCH_obs.json by make bench-obs) and compared by
// cmd/benchdiff.
type Trajectory struct {
	// Schema is the document version; always SchemaVersion on write.
	Schema int `json:"schema"`
	// Suite names the benchmark suite ("sim", "obs", "serve").
	Suite string `json:"suite"`
	Env   Env    `json:"env"`
	// Benchmarks maps benchmark name to its aggregated metrics.
	Benchmarks map[string]Benchmark `json:"benchmarks,omitempty"`
	// Metrics optionally carries the obs registry snapshot aggregated
	// across the suite's runs (the -benchobs / -benchserve counters).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Sample is one benchmark invocation's measurements, as fed to a Recorder.
// Zero Sim* values mean "not measured" and are omitted from the aggregate.
type Sample struct {
	NsPerOp          float64
	BytesPerOp       float64
	AllocsPerOp      float64
	SimCyclesPerSec  float64
	SimPacketsPerSec float64
}

// Recorder accumulates benchmark samples across one test-binary run.
// Benchmarks repeated with -count feed one Sample per invocation, giving
// the trajectory its median/min aggregation. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	samples map[string][]Sample
}

// NewRecorder returns an empty recorder.
//
//nepvet:allow api/unused the bench harness in the root bench_test.go records and writes trajectories with it
func NewRecorder() *Recorder {
	return &Recorder{samples: make(map[string][]Sample)}
}

// Record appends one invocation's sample for the named benchmark.
//
//nepvet:allow api/unused the bench harness in the root bench_test.go records and writes trajectories with it
func (r *Recorder) Record(name string, s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = append(r.samples[name], s)
}

// Benchmarks aggregates the recorded samples. Benchmarks with no samples
// do not appear.
func (r *Recorder) Benchmarks() map[string]Benchmark {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Benchmark, len(r.samples))
	for name, samples := range r.samples {
		var ns, bytes, allocs, cycles, pkts []float64
		for _, s := range samples {
			ns = append(ns, s.NsPerOp)
			bytes = append(bytes, s.BytesPerOp)
			allocs = append(allocs, s.AllocsPerOp)
			if s.SimCyclesPerSec > 0 {
				cycles = append(cycles, s.SimCyclesPerSec)
			}
			if s.SimPacketsPerSec > 0 {
				pkts = append(pkts, s.SimPacketsPerSec)
			}
		}
		b := Benchmark{
			NsPerOp:     NewStat(ns),
			BytesPerOp:  NewStat(bytes),
			AllocsPerOp: NewStat(allocs),
		}
		if len(cycles) > 0 {
			st := NewStat(cycles)
			b.SimCyclesPerSec = &st
		}
		if len(pkts) > 0 {
			st := NewStat(pkts)
			b.SimPacketsPerSec = &st
		}
		out[name] = b
	}
	return out
}

// NewTrajectory assembles a trajectory point from a recorder's aggregates
// and an optional metrics snapshot, stamped with the current environment.
//
//nepvet:allow api/unused the bench harness in the root bench_test.go records and writes trajectories with it
func NewTrajectory(suite string, rec *Recorder, metrics *obs.Snapshot) Trajectory {
	t := Trajectory{
		Schema:  SchemaVersion,
		Suite:   suite,
		Env:     CurrentEnv(),
		Metrics: metrics,
	}
	if rec != nil {
		if b := rec.Benchmarks(); len(b) > 0 {
			t.Benchmarks = b
		}
	}
	return t
}

// WriteFile writes the trajectory as indented JSON, atomically (temp file
// + fsync + rename) so a gate never reads a torn baseline. Map keys render
// sorted, so equal trajectories serialize identically.
//
//nepvet:allow api/unused the bench harness in the root bench_test.go records and writes trajectories with it
func (t Trajectory) WriteFile(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	return obs.AtomicWriteFile(path, append(b, '\n'), 0o644)
}

// SchemaError reports a trajectory whose schema version this code does not
// speak. cmd/benchdiff maps it to a usage exit, distinct from a missing
// file or a regression.
type SchemaError struct {
	Path string
	Got  int
}

// Error implements error.
func (e *SchemaError) Error() string {
	return fmt.Sprintf("perf: %s: schema version %d, want %d", e.Path, e.Got, SchemaVersion)
}

// ReadFile loads a trajectory written by WriteFile, rejecting unknown
// schema versions with a *SchemaError.
func ReadFile(path string) (Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Trajectory{}, err
	}
	var t Trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return Trajectory{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	if t.Schema != SchemaVersion {
		return Trajectory{}, &SchemaError{Path: path, Got: t.Schema}
	}
	return t, nil
}
