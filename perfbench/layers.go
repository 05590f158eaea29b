package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nepdvs/internal/loc"
	"nepdvs/internal/obs"
	"nepdvs/internal/trace"
)

// clock reads the host's monotonic clock. Every host-time number the
// benchmark reports is a difference of two clock readings.
func clock() time.Time {
	return time.Now() //nepvet:allow det/wallclock the benchmark measures host time
}

// span is one timed call into a layer, recorded by the benchmark around that
// call. Times are nanoseconds since the tracer started; Parent indexes the
// enclosing span (-1 for none) and Op numbers the timed op (-1 in set-up).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Container spans group the layer spans of one round or op; they are not
// layers themselves, so they count for no layer's time.
const (
	spanRound = "round"
	spanOp    = "op"
)

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced rounds run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: clock()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	id := t.add(name, op, clock(), time.Time{})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.at(clock())
	t.open = t.open[:len(t.open)-1]
}

// add records a span nested in the innermost open one. A zero end leaves
// the span open for end.
func (t *tracer) add(name string, op int, start, end time.Time) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{Name: name, Op: op, Parent: parent, Start: t.at(start)}
	if !end.IsZero() {
		s.End = t.at(end)
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// attributed is the host time of the timed phase covered by layer spans:
// the outermost non-container spans inside a round, which never overlap
// because one goroutine drives the benchmark. Set-up spans sit in no round.
func (t *tracer) attributed() time.Duration {
	container := func(id int) bool {
		return t.spans[id].Name == spanRound || t.spans[id].Name == spanOp
	}
	var d int64
	for i, s := range t.spans {
		if !container(i) && s.Parent >= 0 && container(s.Parent) {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// timedSinks fans each trace event out to its sinks, adding up the host time
// spent in each and the events seen. It replaces trace.MultiSink in traced
// rounds; one clock reading per sink per event.
type timedSinks struct {
	names  []string
	sinks  []trace.Sink
	ns     []int64
	events int64
}

func newTimedSinks(names []string, sinks []trace.Sink) *timedSinks {
	return &timedSinks{names: names, sinks: sinks, ns: make([]int64, len(sinks))}
}

func (m *timedSinks) Emit(ev *trace.Event) error {
	t := clock()
	for i, s := range m.sinks {
		if err := s.Emit(ev); err != nil {
			return err
		}
		u := clock()
		m.ns[i] += int64(u.Sub(t))
		t = u
	}
	m.events++
	return nil
}

// time returns the host time spent in the named sink.
func (m *timedSinks) time(name string) time.Duration {
	for i, n := range m.names {
		if n == name {
			return time.Duration(m.ns[i])
		}
	}
	return 0
}

// all returns the host time spent in every sink.
func (m *timedSinks) all() time.Duration {
	var d int64
	for _, ns := range m.ns {
		d += ns
	}
	return time.Duration(d)
}

// countSink counts the trace events it sees; the untraced rounds' stand-in
// for timedSinks' event count.
type countSink struct{ n int64 }

func (c *countSink) Emit(*trace.Event) error {
	c.n++
	return nil
}

// layerAcc adds up what the traced rounds measured: host times in seconds
// and counts, by per-layer metric ingredient.
type layerAcc map[string]float64

// simCounts adds one or more runs' published simulator counters.
func (a layerAcc) simCounts(snap obs.Snapshot) {
	var instr uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "npu_me") && strings.HasSuffix(name, "_instr_retired") {
			instr += v
		}
	}
	a["sim.events_dispatched"] += float64(snap.Counters["sim_events_dispatched"])
	a["sim.heap_pushes"] += float64(snap.Counters["sim_heap_pushes"])
	a["npu.instr_retired"] += float64(instr)
	a["npu.pkts_arrived"] += float64(snap.Counters["npu_pkts_arrived"])
	a["npu.pkts_dropped"] += float64(snap.Counters["npu_pkts_dropped"])
	a["npu.sdram_requests"] += float64(snap.Counters["npu_sdram_requests"])
	a["npu.stall_cycles"] += float64(snap.Counters["npu_stall_cycles_total"])
	a["dvs.windows"] += float64(snap.Counters["dvs_windows"])
	a["dvs.transitions"] += float64(snap.Counters["dvs_transitions"])
}

// locCounts adds one checker run's instance and violation counts and keeps
// the highest retention-window peak.
func (a layerAcc) locCounts(results []loc.Result) {
	for _, r := range results {
		switch {
		case r.Check != nil:
			a["loc.instances"] += float64(r.Check.Instances)
			a["loc.violations"] += float64(r.Check.Total)
		case r.Dist != nil:
			a["loc.instances"] += float64(r.Dist.Instances)
		}
		a["loc.window_peak"] = max(a["loc.window_peak"], float64(r.WindowPeak))
	}
}

// perLayer is the list of per-layer metrics a traced run prints, with their
// units; BENCHMARK.json lists the same names.
var perLayer = []struct{ name, unit string }{
	{"core.run_s", "s"},
	{"core.sim_self_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_dispatched", "count"},
	{"sim.heap_pushes", "count"},
	{"npu.ns_per_instr", "ns"},
	{"npu.instr_retired", "count"},
	{"npu.pkts_arrived", "count"},
	{"npu.pkts_dropped", "count"},
	{"npu.sdram_requests", "count"},
	{"npu.stall_cycles", "count"},
	{"dvs.windows", "count"},
	{"dvs.transitions", "count"},
	{"trace.write_s", "s"},
	{"trace.write_ns_per_event.text", "ns"},
	{"trace.write_ns_per_event.npt1", "ns"},
	{"trace.bytes_written", "bytes"},
	{"trace.read_s", "s"},
	{"trace.read_ns_per_event.text", "ns"},
	{"trace.read_ns_per_event.npt1", "ns"},
	{"loc.live_ns_per_event", "ns"},
	{"loc.replay_ns_per_event", "ns"},
	{"loc.instances", "count"},
	{"loc.violations", "count"},
	{"loc.window_peak", "count"},
	{"loc.compile_s", "s"},
	{"experiments.render_s", "s"},
	{"traffic.gen_s", "s"},
	{"workload.assemble_s", "s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.unattributed_frac", "ratio"},
}

// layerMetrics derives the per-layer metrics of a traced run. Times and
// counts are per traced op, except loc.compile_s (per set-up pass),
// experiments.render_s (per sweep round), traffic.gen_s and
// workload.assemble_s (per run config), runtime.* (over the whole timed
// phase) and the two bench.* fractions. A layer a workload does not load
// reads 0.
func layerMetrics(a layerAcc, t *tracer, tr timedPhase) map[string]float64 {
	ops := a["ops"]
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	perOp := func(k string) float64 { return div(a[k], ops) }
	secs := func(name string) float64 { return t.total(name).Seconds() }
	const ns = 1e9
	selfS := secs("core.run") - a["sink_s"]
	m := map[string]float64{
		"core.run_s":       div(secs("core.run"), ops),
		"core.sim_self_s":  div(selfS, ops),
		"sim.ns_per_event": div(selfS*ns, a["sim.events_dispatched"]),
		"npu.ns_per_instr": div(selfS*ns, a["npu.instr_retired"]),

		"trace.write_s":                 div(a["write.text_s"]+a["write.npt1_s"]+secs("trace.close"), ops),
		"trace.write_ns_per_event.text": div(a["write.text_s"]*ns, a["write.events"]),
		"trace.write_ns_per_event.npt1": div(a["write.npt1_s"]*ns, a["write.events"]),
		"trace.bytes_written":           perOp("trace.bytes_written"),

		"trace.read_s":                 div(secs("trace.drain.text")+secs("trace.drain.npt1"), ops),
		"trace.read_ns_per_event.text": div(secs("trace.drain.text")*ns, a["read.events"]),
		"trace.read_ns_per_event.npt1": div(secs("trace.drain.npt1")*ns, a["read.events"]),

		"loc.live_ns_per_event": div(a["loc.live_s"]*ns, a["write.events"]),
		"loc.replay_ns_per_event": div((secs("loc.run.text")+secs("loc.run.npt1")-
			secs("trace.drain.text")-secs("trace.drain.npt1"))*ns, 2*a["read.events"]),
		"loc.window_peak":      a["loc.window_peak"],
		"loc.compile_s":        div(secs("loc.compile"), a["setup_passes"]),
		"experiments.render_s": div(secs("experiments.render"), a["rounds"]),
		"traffic.gen_s":        div(secs("traffic.gen"), a["configs"]),
		"workload.assemble_s":  div(secs("workload.assemble"), a["configs"]),

		"runtime.alloc_mb_per_op": div(a["alloc_bytes"]/1e6, a["all_ops"]),
		"runtime.mallocs_per_op":  div(a["mallocs"], a["all_ops"]),
		"runtime.gc_cycles":       a["gc_cycles"],

		"bench.trace_overhead_frac": div(tr.traced.Seconds()/a["rounds"], tr.untraced.Seconds()/a["untraced_rounds"]) - 1,
		"bench.unattributed_frac":   div(tr.traced.Seconds()-t.attributed().Seconds(), tr.traced.Seconds()),
	}
	for _, k := range []string{
		"sim.events_dispatched", "sim.heap_pushes", "npu.instr_retired", "npu.pkts_arrived",
		"npu.pkts_dropped", "npu.sdram_requests", "npu.stall_cycles", "dvs.windows",
		"dvs.transitions", "loc.instances", "loc.violations",
	} {
		m[k] = perOp(k)
	}
	return m
}

// writeSpans dumps the traced run's spans and sink timers as JSON.
func writeSpans(path string, t *tracer, a layerAcc) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	acc := make([]accEntry, len(keys))
	for i, k := range keys {
		acc[i] = accEntry{k, a[k]}
	}
	b, err := json.MarshalIndent(struct {
		Spans []span     `json:"spans"`
		Acc   []accEntry `json:"accumulators"`
	}{t.spans, acc}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write span dump: %w", err)
	}
	return nil
}

type accEntry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}
