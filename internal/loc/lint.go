package loc

import (
	"fmt"
	"sort"
	"strings"

	"nepdvs/internal/lint/diag"
)

// Static analysis of parsed formulas — the LOC front of nepvet, surfaced
// as locheck -lint and run by locgen before codegen. Lint mirrors the
// paper's analyze-then-generate flow: every finding is positioned in the
// formula source and reported before any checker is generated or any
// trace is read. Unlike Analyze (which stops at the first semantic error
// because compilation cannot proceed), Lint keeps going and returns every
// finding.

// Lint rule IDs.
const (
	LintUnknownAnn = "loc/unknown-ann" // annotation absent from the trace schema
	LintWindow     = "loc/window"      // inferred retention exceeds the runner limit
	LintAbsIndex   = "loc/abs-index"   // negative absolute event index
	LintConstRel   = "loc/const-rel"   // relation constant-folds to true/false
	LintDivZero    = "loc/div-zero"    // division by a constant zero
	LintNoEvents   = "loc/no-events"   // formula references no trace events
	LintPeriod     = "loc/period"      // malformed analysis period
	LintParse      = "loc/parse"       // source does not parse

	// Semantic rules, reported by the analyzer (AnalyzeFile/AnalyzeFormula).
	LintVacuous       = "loc/vacuous"       // formula can never fire against the event schema
	LintTautology     = "loc/tautology"     // relation always holds; the assertion cannot fail
	LintContradiction = "loc/contradiction" // relation (or formula pair) can never hold
	LintSubsumed      = "loc/subsumed"      // relation implied by another formula in the file
)

// LintMaxWindow is the per-event history span beyond which Lint considers
// the streaming window effectively unbounded. It equals the runner's
// default retention limit (RunnerOptions.MaxWindow), so a formula that
// lints clean also runs within default memory bounds.
const LintMaxWindow = 1 << 22

// finding builds one LOC lint finding, positioned in the formula source.
func finding(pos Pos, rule, msg string) diag.Diag {
	return diag.Diag{Line: pos.Line, Col: pos.Col, Rule: rule, Msg: msg}
}

// Lint statically analyzes one formula against an annotation schema (nil
// skips annotation-name checking, as in Analyze). Findings come back
// sorted by position.
func Lint(f *Formula, schema map[string]bool) []diag.Diag {
	var diags []diag.Diag
	report := func(pos Pos, rule, format string, args ...any) {
		diags = append(diags, finding(pos, rule, fmt.Sprintf(format, args...)))
	}

	if f.Kind == KindDist {
		if f.Period.Step <= 0 {
			report(f.Pos, LintPeriod, "analysis period %v has non-positive step", f.Period)
		}
		if f.Period.Max <= f.Period.Min {
			report(f.Pos, LintPeriod, "analysis period %v has max <= min", f.Period)
		}
	}

	// Annotation references: schema membership (with suggestions) plus
	// per-event window inference, deduplicated so one typo'd annotation
	// used five times reports once per distinct reference.
	windows := map[string]*EventWindow{}
	seenRef := map[Ref]bool{}
	refs := 0
	usesIndexVar := false
	f.Walk(func(e Expr) {
		if _, ok := e.(*IndexVar); ok {
			usesIndexVar = true
		}
		n, ok := e.(*AnnRef)
		if !ok {
			return
		}
		refs++
		r := Ref{Ann: n.Ann, Event: n.Event, Index: clearPos(n.Index)}
		if seenRef[r] {
			return
		}
		seenRef[r] = true
		if schema != nil && !schema[n.Ann] {
			msg := fmt.Sprintf("unknown annotation %q (trace schema has %s)", n.Ann, schemaList(schema))
			if sugg := didYouMean(n.Ann, schema); sugg != "" {
				msg = fmt.Sprintf("unknown annotation %q (did you mean %q?)", n.Ann, sugg)
			}
			report(n.Pos, LintUnknownAnn, "%s", msg)
		}
		if !n.Index.Rel && n.Index.Offset < 0 {
			report(n.Pos, LintAbsIndex, "absolute event index must be non-negative, got %d", n.Index.Offset)
		}
		w := windows[n.Event]
		if w == nil {
			w = &EventWindow{Event: n.Event}
			windows[n.Event] = w
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
		} else if n.Index.Offset >= 0 {
			w.AbsIndices = insertSorted(w.AbsIndices, n.Index.Offset)
		}
	})
	if refs == 0 {
		report(f.Pos, LintNoEvents, "formula references no trace events; nothing to check")
	}
	events := make([]string, 0, len(windows))
	hasRel := false
	for e, w := range windows {
		events = append(events, e)
		hasRel = hasRel || w.HasRel
	}
	if refs > 0 && usesIndexVar && !hasRel {
		report(f.Pos, LintWindow,
			"formula uses the instance index i but no relative event reference; the instance stream is unbounded")
	}
	sort.Strings(events)
	for _, e := range events {
		w := windows[e]
		if n := w.Retention(); n > LintMaxWindow {
			why := fmt.Sprintf("offsets %+d..%+d", w.MinOff, w.MaxOff)
			if len(w.AbsIndices) > 0 {
				why += fmt.Sprintf(", largest absolute index %d", w.AbsIndices[len(w.AbsIndices)-1])
			}
			report(f.Pos, LintWindow,
				"formula must retain %d instances of event %q (%s); exceeds the runner's default retention limit %d",
				n, e, why, int64(LintMaxWindow))
		}
	}

	// Constant-folding findings, computed on the folded formula so they
	// see through arithmetic like "10 * 5 - 50". Positions come from the
	// folded nodes, which preserve the source position of their root.
	folded := FoldFormula(f)
	lintDivZero(folded.LHS, report)
	if f.Kind == KindCheck {
		lintDivZero(folded.RHS, report)
		lc, lok := folded.LHS.(*Num)
		rc, rok := folded.RHS.(*Num)
		if lok && rok {
			report(f.Pos, LintConstRel,
				"relation constant-folds to %v (%g %s %g); the assertion checks nothing",
				f.Rel.Holds(lc.Value, rc.Value), lc.Value, f.Rel, rc.Value)
		}
	}

	diag.Sort(diags)
	return diags
}

// LintFile parses formula source and lints every formula in it. Parse
// errors are converted into a single diagnostic — positioned like every
// other diagnostic, with the message stripped of its embedded position — so
// callers get one uniform findings stream; the bool result reports whether
// the source parsed (callers distinguishing parse failures from lint
// findings, like locheck's exit codes, need the distinction).
func LintFile(src string, schema map[string]bool) ([]diag.Diag, bool) {
	fs, err := ParseFile(src)
	if err != nil {
		return parseDiags(err), false
	}
	var diags []diag.Diag
	for _, f := range fs {
		diags = append(diags, Lint(f, schema)...)
	}
	return diags, true
}

func lintDivZero(e Expr, report func(Pos, string, string, ...any)) {
	walkExpr(e, func(e Expr) {
		b, ok := e.(*Binary)
		if !ok || b.Op != '/' {
			return
		}
		if r, ok := b.R.(*Num); ok && r.Value == 0 {
			report(b.Pos, LintDivZero, "division by constant zero yields ±Inf or NaN on every instance")
		}
	})
}

// didYouMean returns the schema annotation closest to name when the edit
// distance is small enough to look like a typo.
func didYouMean(name string, schema map[string]bool) string {
	best, bestDist := "", 3 // suggest only within edit distance 2
	names := make([]string, 0, len(schema))
	for n := range schema {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if d := editDistance(strings.ToLower(name), strings.ToLower(n)); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance over bytes.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
