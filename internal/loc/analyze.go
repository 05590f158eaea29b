package loc

import (
	"fmt"
	"sort"
)

// Ref is a unique (annotation, event, index) slot referenced by a formula.
// The compiler assigns each distinct reference one slot; the runner fills
// the slots before each instance evaluation.
type Ref struct {
	Ann   string
	Event string
	Index Index
}

func (r Ref) String() string {
	return fmt.Sprintf("%s(%s[%s])", r.Ann, r.Event, r.Index)
}

// EventWindow describes how much history of one event a streaming evaluation
// must retain.
type EventWindow struct {
	Event string
	// MinOff and MaxOff are the smallest and largest relative offsets
	// referencing this event. Valid only when HasRel.
	MinOff, MaxOff int64
	HasRel         bool
	// AbsIndices lists constant indices referencing this event (sorted).
	AbsIndices []int64
}

// Span is the ring-buffer capacity needed for the relative references:
// MaxOff - MinOff + 1 instances. Zero when the event has only absolute
// references.
func (w EventWindow) Span() int64 {
	if !w.HasRel {
		return 0
	}
	return w.MaxOff - w.MinOff + 1
}

// Retention is the number of instances of this event the streaming runner
// must be able to hold at once: the relative-offset span, stretched when an
// absolute reference on the same event pins instances the evaluation loop
// cannot drain past until instance AbsIndices[last] arrives. Zero when the
// event has only absolute references (the runner keeps no ring for it).
func (w EventWindow) Retention() int64 {
	if !w.HasRel {
		return 0
	}
	n := w.Span()
	if len(w.AbsIndices) > 0 {
		if stall := w.AbsIndices[len(w.AbsIndices)-1] + 1; stall > n {
			n = stall
		}
	}
	return n
}

// Analysis is the result of semantic analysis of one formula.
type Analysis struct {
	Formula *Formula
	// Refs in first-appearance order; slot k in the compiled program
	// corresponds to Refs[k].
	Refs []Ref
	// Windows keyed by event name.
	Windows map[string]*EventWindow
	// UsesIndexVar reports whether the formula's arithmetic uses i itself.
	UsesIndexVar bool
}

// RetentionBound is the statically inferred history requirement of one event
// class. Instances is a lower bound on the ring capacity the runner needs;
// Exact additionally promises the runner's retention can never exceed it, so
// the ring may be allocated once at exactly that capacity.
type RetentionBound struct {
	Instances int64
	Exact     bool
}

// Retention infers the per-event retention bound from the formula's
// index-offset lattice. The bound is exact precisely when the formula
// references a single event class: with several, one event outpacing another
// stalls the evaluation loop and forces retention that depends on the trace
// (the runtime MaxWindow limit still applies), so the bound is only a
// minimum.
func (a *Analysis) Retention() map[string]RetentionBound {
	exact := len(a.Windows) == 1
	out := make(map[string]RetentionBound, len(a.Windows))
	for ev, w := range a.Windows {
		out[ev] = RetentionBound{Instances: w.Retention(), Exact: exact}
	}
	return out
}

// Analyze performs semantic analysis: it validates the analysis period of
// distribution formulas, checks annotation names against the optional
// schema, collects the distinct annotation references, and infers per-event
// history windows. A nil schema defers annotation-name checking to runtime.
func Analyze(f *Formula, schema map[string]bool) (*Analysis, error) {
	if f.Kind == KindDist {
		if f.Period.Step <= 0 {
			return nil, errf(f.Pos, "analysis period %v has non-positive step", f.Period)
		}
		if f.Period.Max <= f.Period.Min {
			return nil, errf(f.Pos, "analysis period %v has max <= min", f.Period)
		}
	}
	a := &Analysis{Formula: f, Windows: make(map[string]*EventWindow)}
	slot := map[Ref]bool{}
	var walkErr error
	f.Walk(func(e Expr) {
		if walkErr != nil {
			return
		}
		switch n := e.(type) {
		case *IndexVar:
			a.UsesIndexVar = true
		case *AnnRef:
			if schema != nil && !schema[n.Ann] {
				walkErr = errf(n.Pos, "unknown annotation %q (trace schema has %s)", n.Ann, schemaList(schema))
				return
			}
			if !n.Index.Rel && n.Index.Offset < 0 {
				walkErr = errf(n.Pos, "absolute event index must be non-negative, got %d", n.Index.Offset)
				return
			}
			r := Ref{Ann: n.Ann, Event: n.Event, Index: clearPos(n.Index)}
			if !slot[r] {
				slot[r] = true
				a.Refs = append(a.Refs, r)
			}
			w := a.Windows[n.Event]
			if w == nil {
				w = &EventWindow{Event: n.Event}
				a.Windows[n.Event] = w
			}
			if n.Index.Rel {
				if !w.HasRel {
					w.HasRel = true
					w.MinOff, w.MaxOff = n.Index.Offset, n.Index.Offset
				} else {
					if n.Index.Offset < w.MinOff {
						w.MinOff = n.Index.Offset
					}
					if n.Index.Offset > w.MaxOff {
						w.MaxOff = n.Index.Offset
					}
				}
			} else {
				w.AbsIndices = insertSorted(w.AbsIndices, n.Index.Offset)
			}
		}
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if len(a.Refs) == 0 {
		return nil, errf(f.Pos, "formula references no trace events; nothing to check")
	}
	// Without a relative reference nothing bounds the instance stream: the
	// formula describes exactly one instance (all indices pinned), so using
	// i would quantify over an unbounded set no trace can ever satisfy the
	// runner to enumerate.
	if a.UsesIndexVar && !a.hasRel() {
		return nil, errf(f.Pos, "formula uses the instance index i but no relative event reference; the instance stream is unbounded")
	}
	return a, nil
}

// hasRel reports whether any reference uses a relative (i-based) index.
func (a *Analysis) hasRel() bool {
	for _, w := range a.Windows {
		if w.HasRel {
			return true
		}
	}
	return false
}

func insertSorted(xs []int64, v int64) []int64 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// schemaNames returns the names a schema map declares, sorted.
func schemaNames(schema map[string]bool) []string {
	names := make([]string, 0, len(schema))
	for n := range schema {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func schemaList(schema map[string]bool) string { return fmt.Sprint(schemaNames(schema)) }

// StandardSchema returns the annotation schema of NPU simulation traces:
// the five standard annotations plus any extras the caller declares.
func StandardSchema(extras ...string) map[string]bool {
	m := map[string]bool{
		"cycle": true, "time": true, "energy": true, "total_pkt": true, "total_bit": true,
	}
	for _, e := range extras {
		m[e] = true
	}
	return m
}
