package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// Manifest records everything needed to reproduce (and audit) one tool
// invocation that wrote results: the full configuration, seed, run length,
// a metrics snapshot, and the toolchain/environment facts. Writing one next
// to every results file turns a results directory into a reproducible
// artifact rather than a pile of unlabeled numbers.
//
// The Config block is deterministic for identical configurations; WallMS,
// GoVersion and hostname-class fields are deliberately outside it so that
// byte-comparing the config block across runs is meaningful.
type Manifest struct {
	// Tool is the command that produced the results (nepsim, dvsexplore).
	Tool string `json:"tool"`
	// Args is the raw command line after the program name.
	Args []string `json:"args"`
	// Config is the tool's fully resolved configuration (for nepsim, the
	// core.RunConfig; for dvsexplore, its option set and experiment list).
	Config any `json:"config"`
	// Seed is the traffic seed of the run(s).
	Seed int64 `json:"seed"`
	// Cycles is the run length in reference cycles.
	Cycles int64 `json:"cycles"`
	// Outputs lists the result files this invocation wrote.
	Outputs []string `json:"outputs,omitempty"`
	// Failures records per-experiment (or per-run) errors the invocation
	// survived: the resilient engine completes what it can and accounts
	// for the rest here.
	Failures []string `json:"failures,omitempty"`
	// Metrics is the registry snapshot at completion.
	Metrics *Snapshot `json:"metrics,omitempty"`
	// Cache summarizes run-cache activity during the invocation, when a
	// content-addressed run cache was attached (nepsim/dvsexplore -cache).
	// Hits are simulations that were skipped entirely.
	Cache *CacheSummary `json:"cache,omitempty"`
	// Perf is the host-performance snapshot (simulated cycles/sec,
	// per-packet allocation, events/sec) captured when the tool measured
	// its own speed (nepsim -perf). Wall-clock derived and therefore
	// non-deterministic, which is why it lives beside — never inside —
	// the deterministic Metrics snapshot.
	Perf *Snapshot `json:"perf,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// GOOS/GOARCH pin the platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// WallMS is the invocation's wall-clock duration in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// CacheSummary records what the run cache did for one invocation. It is a
// plain value (not a live counter view) so manifests stay self-contained.
type CacheSummary struct {
	// Dir is the cache directory.
	Dir string `json:"dir"`
	// Hits counts lookups served from the store — simulations skipped.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that fell through to a real simulation.
	Misses uint64 `json:"misses"`
	// Stores counts entries written after cache-miss runs.
	Stores uint64 `json:"stores"`
	// Errors counts corrupt or unreadable entries (each also a miss).
	Errors uint64 `json:"errors,omitempty"`
}

// NewManifest starts a manifest for the running tool, stamping the
// toolchain facts.
func NewManifest(tool string, args []string) *Manifest {
	return &Manifest{
		Tool:      tool,
		Args:      args,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// SetWall records the invocation duration.
func (m *Manifest) SetWall(d time.Duration) { m.WallMS = float64(d) / float64(time.Millisecond) }

// WriteFile serializes the manifest as indented JSON at path. The write is
// atomic (temp file + fsync + rename): a killed run never leaves a
// truncated manifest behind.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return AtomicWriteFile(path, append(b, '\n'), 0o644)
}
