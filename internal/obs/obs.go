// Package obs is the simulator's observability layer: a small, stdlib-only
// metrics substrate (typed counters, gauges and histograms in a named
// registry), deterministic snapshot/export machinery, run manifests that
// make every results file reproducible, a live progress line for long
// sweeps, and pprof helpers for the performance work the ROADMAP calls for.
//
// Determinism is a design requirement, not an accident: a snapshot of a
// registry whose values derive only from simulation state (event counts,
// cycle counts, queue depths) is byte-stable across runs with the same seed.
// To keep that property, nothing in this package ever folds wall-clock time
// into a metric value — wall time lives in manifests and progress displays,
// which are explicitly non-deterministic surfaces. Snapshots render with
// sorted keys so equal registries serialize identically.
//
// All metric types are safe for concurrent use; parallel sweep workers may
// share one registry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (atomic compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark update.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets defined by ascending
// upper edges; observations above the last edge land in an overflow bucket.
type Histogram struct {
	mu     sync.Mutex
	edges  []float64 // ascending upper bucket edges
	counts []uint64  // len(edges)+1: last is overflow
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += v
	for i, e := range h.edges {
		if v <= e {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.edges)]++
}

// mergeSnapshot folds a previously captured snapshot's observations into
// the histogram. The bucket edges must match exactly.
func (h *Histogram) mergeSnapshot(s HistogramSnapshot) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(s.Edges) != len(h.edges) || len(s.Counts) != len(h.counts) {
		return fmt.Errorf("obs: histogram shape mismatch: %d/%d edges, %d/%d buckets",
			len(s.Edges), len(h.edges), len(s.Counts), len(h.counts))
	}
	for i, e := range s.Edges {
		if e != h.edges[i] {
			return fmt.Errorf("obs: histogram edge %d mismatch: %v vs %v", i, e, h.edges[i])
		}
	}
	for i, c := range s.Counts {
		h.counts[i] += c
	}
	h.sum += s.Sum
	h.n += s.Count
	return nil
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Edges:  append([]float64(nil), h.edges...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
	return s
}

// Registry holds named metrics. Names are free-form but conventionally
// snake_case with a subsystem prefix (sim_events_dispatched,
// npu_me0_instr_retired). Get-or-create accessors make call sites
// self-registering; asking for an existing name with a mismatched type
// panics, since that is always a programming error.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) checkTaken(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkTaken(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkTaken(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bucket edges on first use (later calls may pass nil edges
// to fetch the existing histogram).
func (r *Registry) Histogram(name string, edges []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkTaken(name, "histogram")
	if len(edges) == 0 {
		panic(fmt.Sprintf("obs: histogram %q created without bucket edges", name))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("obs: histogram %q edges not ascending: %v", name, edges))
		}
	}
	h := &Histogram{edges: append([]float64(nil), edges...), counts: make([]uint64, len(edges)+1)}
	r.hists[name] = h
	return h
}

// ExponentialEdges builds n ascending upper edges starting at start,
// multiplying by factor (> 1) each step.
func ExponentialEdges(start, factor float64, n int) []float64 {
	edges := make([]float64, n)
	v := start
	for i := range edges {
		edges[i] = v
		v *= factor
	}
	return edges
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"` // len(Edges)+1; last is overflow
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a frozen, serializable view of a registry. Map keys sort
// deterministically under encoding/json, so equal registries marshal to
// identical bytes.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	// Copy the metric pointers under the registry lock, then read values
	// outside it: each metric type synchronizes its own reads.
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]uint64, len(counters))
		for k, c := range counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, h := range hists {
			s.Histograms[k] = h.snapshot()
		}
	}
	return s
}

// MergeSnapshot folds a snapshot back into the registry: counters add their
// counts, gauges adopt the snapshot's value, and histograms add their bucket
// counts (creating any metric that does not exist yet). This is how a cached
// run's stored metrics replay into a live registry — merging the snapshot a
// simulation once produced is observationally equivalent to the run
// publishing its metrics again. It returns an error when a snapshot metric
// name is already registered as a different type, or when histogram bucket
// edges disagree; metrics merged before the mismatch stay merged.
func (r *Registry) MergeSnapshot(s Snapshot) error {
	// Deterministic iteration so a multi-error merge always reports the
	// same first failure.
	for _, name := range sortedKeys(s.Counters) {
		c, err := r.typedCounter(name)
		if err != nil {
			return err
		}
		c.Add(s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		g, err := r.typedGauge(name)
		if err != nil {
			return err
		}
		g.Set(s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		h, err := r.typedHistogram(name, hs.Edges)
		if err != nil {
			return err
		}
		if err := h.mergeSnapshot(hs); err != nil {
			return fmt.Errorf("%w (metric %q)", err, name)
		}
	}
	return nil
}

// typedCounter is Counter with the type-clash panic converted to an error,
// for merge paths fed by external documents rather than code.
func (r *Registry) typedCounter(name string) (*Counter, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c, nil
	}
	if _, ok := r.gauges[name]; ok {
		return nil, fmt.Errorf("obs: %q already registered as a gauge", name)
	}
	if _, ok := r.hists[name]; ok {
		return nil, fmt.Errorf("obs: %q already registered as a histogram", name)
	}
	c := &Counter{}
	r.counters[name] = c
	return c, nil
}

func (r *Registry) typedGauge(name string) (*Gauge, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g, nil
	}
	if _, ok := r.counters[name]; ok {
		return nil, fmt.Errorf("obs: %q already registered as a counter", name)
	}
	if _, ok := r.hists[name]; ok {
		return nil, fmt.Errorf("obs: %q already registered as a histogram", name)
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g, nil
}

func (r *Registry) typedHistogram(name string, edges []float64) (*Histogram, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h, nil
	}
	if _, ok := r.counters[name]; ok {
		return nil, fmt.Errorf("obs: %q already registered as a counter", name)
	}
	if _, ok := r.gauges[name]; ok {
		return nil, fmt.Errorf("obs: %q already registered as a gauge", name)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("obs: histogram %q snapshot has no bucket edges", name)
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("obs: histogram %q edges not ascending: %v", name, edges)
		}
	}
	h := &Histogram{edges: append([]float64(nil), edges...), counts: make([]uint64, len(edges)+1)}
	r.hists[name] = h
	return h, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
