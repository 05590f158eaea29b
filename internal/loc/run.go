package loc

import (
	"fmt"
	"math"
	"strings"

	"nepdvs/internal/loc/rt"
	"nepdvs/internal/obs"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
	"nepdvs/internal/stats"
	"nepdvs/internal/trace"
)

// The checker runtime lives in package rt, shared verbatim with generated
// checkers; these aliases keep its result types under their loc names.
type (
	Binding     = rt.Binding
	Violation   = rt.Violation
	Density     = rt.Density
	CheckResult = rt.CheckResult
	// RunnerOptions tunes runner resource limits (violation retention and
	// the per-event history bound).
	RunnerOptions = rt.Options
)

// DistResult is the outcome of running a distribution formula over a trace.
type DistResult struct {
	Op        DistOp
	Hist      *stats.Histogram
	Instances int64
	Skipped   int64
}

// View returns the distribution in the formula's requested view.
func (d *DistResult) View() []float64 {
	switch d.Op {
	case DistHist:
		return d.Hist.Fractions()
	case DistCCDF:
		return d.Hist.CCDF()
	default:
		return d.Hist.CDF()
	}
}

// Render writes the distribution as a two-column table.
func (d *DistResult) Render() string {
	out, err := d.Hist.Render(d.Op.String())
	if err != nil {
		// The op/view mapping is closed; an error here is a bug.
		panic(err)
	}
	return out
}

// Result is the outcome of one formula.
type Result struct {
	Name    string
	Formula *Formula
	Check   *CheckResult // non-nil iff Formula.Kind == KindCheck
	Dist    *DistResult  // non-nil iff Formula.Kind == KindDist
	// WindowPeak is the high-water mark of retained event history (ring
	// instances) this formula forced the runner to hold.
	WindowPeak int64
}

// Summary renders a one-formula report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "formula %s: %s\n", r.Name, r.Formula)
	if r.Check != nil {
		b.WriteString(r.Check.String())
	} else {
		d := r.Dist
		fmt.Fprintf(&b, "  %d instances analyzed (%d skipped, %d NaN)\n", d.Instances, d.Skipped, d.Hist.NaNs())
		b.WriteString(d.Render())
	}
	return b.String()
}

// Runner evaluates a set of compiled formulas over a single pass of a trace,
// one rt.Checker per formula. It implements trace.Sink so a simulation can
// feed it live, avoiding trace files entirely — or it can be driven from a
// trace.Source via Run.
type Runner struct {
	formulas []*formulaState
	// byEvent maps event name -> the checkers that reference it.
	byEvent map[string][]target
}

// formulaState is one formula of the runner: its checker and, for a
// distribution, the result its histogram feeds.
type formulaState struct {
	name     string
	compiled *Compiled
	ck       *rt.Checker
	dist     *DistResult // non-nil for distribution formulas
}

// target is one checker interested in an event, with the event's index in
// that checker.
type target struct {
	ck *rt.Checker
	k  int
}

// NewRunner prepares a runner for the given compiled formulas. Formula names
// default to f1, f2, ... when empty.
func NewRunner(opts RunnerOptions, compiled ...*Compiled) (*Runner, error) {
	if len(compiled) == 0 {
		return nil, fmt.Errorf("loc: no formulas to run")
	}
	r := &Runner{byEvent: make(map[string][]target)}
	for k, c := range compiled {
		f := c.Analysis.Formula
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("f%d", k+1)
		}
		st := &formulaState{name: name, compiled: c, ck: rt.NewChecker(c.runtime(name), opts)}
		if f.Kind == KindDist {
			h, err := stats.NewHistogram(f.Period.Min, f.Period.Max, f.Period.Step)
			if err != nil {
				return nil, fmt.Errorf("loc: formula %s: %v", name, err)
			}
			st.dist = &DistResult{Op: f.Dist, Hist: h}
			st.ck.Dist = h
		}
		r.formulas = append(r.formulas, st)
		for j, ev := range st.ck.Events() {
			r.byEvent[ev] = append(r.byEvent[ev], target{st.ck, j})
		}
	}
	return r, nil
}

// Emit implements trace.Sink.
func (r *Runner) Emit(ev *trace.Event) error {
	for _, t := range r.byEvent[ev.Name] {
		if err := t.ck.Emit(t.k, (*rt.Event)(ev)); err != nil {
			return err
		}
	}
	return nil
}

// simTime converts a trace time in microseconds to the recorder's picosecond
// clock. Non-finite times clamp to zero (the recorder would reject them).
func simTime(us float64) sim.Time {
	if math.IsNaN(us) || math.IsInf(us, 0) {
		return 0
	}
	return sim.Time(math.Round(us * float64(sim.Microsecond)))
}

// Results returns the per-formula outcomes. The first formula that failed
// with a runtime error (missing annotation, window overflow) is reported as
// the error.
func (r *Runner) Results() ([]Result, error) {
	out := make([]Result, 0, len(r.formulas))
	for _, st := range r.formulas {
		if err := st.ck.Err(); err != nil {
			return nil, err
		}
		res := Result{Name: st.name, Formula: st.compiled.Analysis.Formula, WindowPeak: st.ck.WindowPeak}
		if st.dist != nil {
			st.dist.Instances, st.dist.Skipped = st.ck.Result.Instances, st.ck.Result.Skipped
			res.Dist = st.dist
		} else {
			res.Check = &st.ck.Result
		}
		out = append(out, res)
	}
	return out, nil
}

// SetSpans attaches a timeline recorder: every retained violation records a
// span covering the window of trace events its references bound plus an
// instant at the moment the instance became checkable, on the "assert"
// track. Must be called before events are emitted.
func (r *Runner) SetSpans(rec *span.Recorder) {
	for _, st := range r.formulas {
		if rec == nil {
			st.ck.OnRetain = nil
			continue
		}
		name := st.name
		st.ck.OnRetain = func(v Violation, minT float64) {
			args := map[string]float64{"i": float64(v.Instance), "lhs": v.LHS, "rhs": v.RHS}
			rec.Span("assert", name, "assert", simTime(minT), simTime(v.Time), args)
			rec.Instant("assert", name, "assert", simTime(v.Time), args)
		}
	}
}

// PublishMetrics registers per-formula evaluation counters and the
// window-retention high-water gauge. Everything published derives from
// simulation state only, so the snapshot stays byte-identical per seed.
func (r *Runner) PublishMetrics(reg *obs.Registry) {
	for _, st := range r.formulas {
		prefix := "loc_" + st.name + "_"
		res := &st.ck.Result
		reg.Counter(prefix + "instances_total").Add(uint64(res.Instances))
		if st.dist == nil {
			reg.Counter(prefix + "violations_total").Add(uint64(res.Total))
			reg.Counter(prefix + "indeterminate_total").Add(uint64(res.Indeterminate))
		}
		reg.Counter(prefix + "skipped_total").Add(uint64(res.Skipped))
		reg.Gauge(prefix + "window_peak").SetMax(float64(st.ck.WindowPeak))
	}
}

// Run drives a trace source to exhaustion through a new runner and returns
// the per-formula results.
func Run(src trace.Source, opts RunnerOptions, compiled ...*Compiled) ([]Result, error) {
	r, err := NewRunner(opts, compiled...)
	if err != nil {
		return nil, err
	}
	for {
		ev, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := r.Emit(&ev); err != nil {
			return nil, err
		}
	}
	return r.Results()
}

// RunFormulas parses, compiles and runs formula source text against a trace
// source — the one-call "generate the analyzer from the assertion" flow.
func RunFormulas(formulaSrc string, src trace.Source, schema map[string]bool) ([]Result, error) {
	fs, err := ParseFile(formulaSrc)
	if err != nil {
		return nil, err
	}
	compiled := make([]*Compiled, len(fs))
	for k, f := range fs {
		c, err := Compile(f, schema)
		if err != nil {
			return nil, err
		}
		compiled[k] = c
	}
	return Run(src, RunnerOptions{}, compiled...)
}
