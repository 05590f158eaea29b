package loc

import (
	"fmt"
	"math"

	"nepdvs/internal/lint/diag"
	"nepdvs/internal/loc/interval"
)

// Semantic static analysis: an interval abstract interpretation of formulas
// over declared annotation ranges, producing per-relation verdicts
// (always-true / always-false / unknown) and the derived vacuity, tautology,
// contradiction and subsumption diagnostics. Everything here is a pure
// function of formula source plus the schema, so the same verdicts appear in
// locheck -analyze, the locgen pre-codegen gate, service-side assertion
// validation and the Analysis block of loc.Report.
//
// Soundness contract: a VerdictAlwaysTrue formula can never record a
// violation or an indeterminate instance on any trace whose annotation
// values lie within the declared ranges; a VerdictAlwaysFalse formula
// violates on every instance it evaluates. FuzzAnalyzeVsVM holds the VM to
// exactly this contract.

// Schema declares what the analyzer may assume about traces: per-annotation
// value ranges and, optionally, the exact event vocabulary. A nil Events map
// leaves the vocabulary open (no vacuity findings); an annotation missing
// from Anns is treated as any float64 including NaN. A nil *Schema assumes
// nothing at all.
type Schema struct {
	Anns   map[string]interval.Interval
	Events map[string]bool
}

// AnnNames projects the annotation schema into the name set Lint and Compile
// take. Nil when no annotations are declared.
func (s *Schema) AnnNames() map[string]bool {
	if s == nil || len(s.Anns) == 0 {
		return nil
	}
	m := make(map[string]bool, len(s.Anns))
	for n := range s.Anns {
		m[n] = true
	}
	return m
}

func (s *Schema) anns() map[string]interval.Interval {
	if s == nil {
		return nil
	}
	return s.Anns
}

// StandardRanges declares the value ranges of the five standard trace
// annotations: all are cumulative or monotone quantities, hence
// non-negative. This is deliberately the only range set report analysis
// uses (see StaticAnalysis), so reports stay byte-identical no matter which
// extended schema produced the trace.
func StandardRanges() map[string]interval.Interval {
	nn := interval.Range(0, math.Inf(1))
	return map[string]interval.Interval{
		"cycle": nn, "time": nn, "energy": nn, "total_pkt": nn, "total_bit": nn,
	}
}

// Verdict is the analyzer's judgement of a checker relation.
type Verdict int

// Verdicts. Unknown means the relation's truth depends on the trace.
const (
	VerdictUnknown Verdict = iota
	VerdictAlwaysTrue
	VerdictAlwaysFalse
)

var verdictNames = map[Verdict]string{
	VerdictUnknown: "unknown", VerdictAlwaysTrue: "always-true", VerdictAlwaysFalse: "always-false",
}

func (v Verdict) String() string { return verdictNames[v] }

// maxInstance bounds the index variable i: instance numbers are int64.
var maxInstance = float64(math.MaxInt64)

// evalInterval abstracts an expression over the declared annotation ranges.
func evalInterval(e Expr, anns map[string]interval.Interval) interval.Interval {
	switch n := e.(type) {
	case *Num:
		return interval.Point(n.Value)
	case *IndexVar:
		return interval.Range(0, maxInstance)
	case *AnnRef:
		if iv, ok := anns[n.Ann]; ok {
			return iv
		}
		return interval.Unknown()
	case *Unary:
		return evalInterval(n.X, anns).Neg()
	case *Binary:
		l, r := evalInterval(n.L, anns), evalInterval(n.R, anns)
		switch n.Op {
		case '+':
			return interval.Add(l, r)
		case '-':
			return interval.Sub(l, r)
		case '*':
			return interval.Mul(l, r)
		case '/':
			return interval.Div(l, r)
		}
	case *Call:
		switch n.Fn {
		case "abs":
			return evalInterval(n.Args[0], anns).Abs()
		case "min":
			return interval.Min(evalInterval(n.Args[0], anns), evalInterval(n.Args[1], anns))
		case "max":
			return interval.Max(evalInterval(n.Args[0], anns), evalInterval(n.Args[1], anns))
		}
	}
	return interval.Unknown()
}

// negate returns the complementary relation (¬(a ≤ b) ⇔ a > b, and so on).
func negate(r RelOp) RelOp {
	switch r {
	case OpLE:
		return OpGT
	case OpLT:
		return OpGE
	case OpGE:
		return OpLT
	case OpGT:
		return OpLE
	case OpEQ:
		return OpNE
	}
	return OpEQ
}

// alwaysHolds reports whether rel(x, y) holds for every x ∈ l, y ∈ r. A
// possible NaN on either side defeats every claim: NaN comparisons evaluate
// false (the runner counts them as indeterminate, which Passed() rejects).
func alwaysHolds(rel RelOp, l, r interval.Interval) bool {
	if l.NaN || r.NaN {
		return false
	}
	switch rel {
	case OpLE:
		return l.Hi <= r.Lo
	case OpLT:
		return l.Hi < r.Lo
	case OpGE:
		return l.Lo >= r.Hi
	case OpGT:
		return l.Lo > r.Hi
	case OpEQ:
		return l.IsPoint() && r.IsPoint() && l.Lo == r.Lo
	case OpNE:
		return l.Hi < r.Lo || r.Hi < l.Lo
	}
	return false
}

// checkVerdict computes the relation verdict of a checker formula. identical
// reports that the proof came from the two sides being the same expression
// (and therefore bit-identical at runtime) rather than from range bounds.
func checkVerdict(f *Formula, anns map[string]interval.Interval) (v Verdict, lhs, rhs interval.Interval, identical bool) {
	folded := FoldFormula(f)
	lhs = evalInterval(folded.LHS, anns)
	rhs = evalInterval(folded.RHS, anns)
	// Identical expressions evaluate to the same float64 on every instance,
	// so the relation is decided by reflexivity alone — unless the shared
	// value may be NaN, which makes the instance indeterminate instead.
	if !lhs.NaN && EqualExpr(folded.LHS, folded.RHS) {
		switch f.Rel {
		case OpLE, OpGE, OpEQ:
			return VerdictAlwaysTrue, lhs, rhs, true
		default:
			return VerdictAlwaysFalse, lhs, rhs, true
		}
	}
	if alwaysHolds(f.Rel, lhs, rhs) {
		return VerdictAlwaysTrue, lhs, rhs, false
	}
	if alwaysHolds(negate(f.Rel), lhs, rhs) {
		return VerdictAlwaysFalse, lhs, rhs, false
	}
	return VerdictUnknown, lhs, rhs, false
}

// semanticDiags runs the per-formula semantic pass: vacuity against the
// event vocabulary, then the relation verdict. A vacuous formula gets no
// verdict diagnostics — it never fires, so claims about its relation would
// only be noise.
func semanticDiags(f *Formula, sch *Schema) []diag.Diag {
	var diags []diag.Diag
	if sch != nil && sch.Events != nil {
		seen := map[string]bool{}
		f.Walk(func(e Expr) {
			n, ok := e.(*AnnRef)
			if !ok || sch.Events[n.Event] || seen[n.Event] {
				return
			}
			seen[n.Event] = true
			msg := fmt.Sprintf("formula can never fire: trace schema has no event %q", n.Event)
			if sugg := diag.Suggest(n.Event, schemaNames(sch.Events)); sugg != "" {
				msg = fmt.Sprintf("formula can never fire: trace schema has no event %q (did you mean %q?)", n.Event, sugg)
			}
			diags = append(diags, finding(n.Pos, LintVacuous, msg))
		})
		if len(diags) > 0 {
			return diags
		}
	}
	if f.Kind != KindCheck {
		return diags
	}
	folded := FoldFormula(f)
	if _, lok := folded.LHS.(*Num); lok {
		if _, rok := folded.RHS.(*Num); rok {
			return diags // loc/const-rel already reports constant relations
		}
	}
	v, lhs, rhs, identical := checkVerdict(f, sch.anns())
	switch {
	case v == VerdictAlwaysTrue && identical:
		diags = append(diags, finding(f.Pos, LintTautology,
			"lhs and rhs are identical expressions; the relation always holds and the assertion cannot fail"))
	case v == VerdictAlwaysTrue:
		diags = append(diags, finding(f.Pos, LintTautology,
			fmt.Sprintf("relation always holds given declared annotation ranges (lhs in %s, rhs in %s); the assertion cannot fail", lhs, rhs)))
	case v == VerdictAlwaysFalse && identical:
		diags = append(diags, finding(f.Pos, LintContradiction,
			"lhs and rhs are identical expressions; the relation never holds and every instance violates"))
	case v == VerdictAlwaysFalse:
		diags = append(diags, finding(f.Pos, LintContradiction,
			fmt.Sprintf("relation never holds given declared annotation ranges (lhs in %s, rhs in %s); every instance violates", lhs, rhs)))
	}
	return diags
}

// relSet is the set of lhs values satisfying "lhs rel c": an interval with
// open/closed ends, or (for !=) the full line minus one point.
type relSet struct {
	lo, hi         float64
	loOpen, hiOpen bool
	excl           *float64
}

func relSetOf(rel RelOp, c float64) (relSet, bool) {
	if math.IsNaN(c) {
		return relSet{}, false
	}
	inf := math.Inf(1)
	switch rel {
	case OpLE:
		return relSet{lo: -inf, hi: c}, true
	case OpLT:
		return relSet{lo: -inf, hi: c, hiOpen: true}, true
	case OpGE:
		return relSet{lo: c, hi: inf}, true
	case OpGT:
		return relSet{lo: c, hi: inf, loOpen: true}, true
	case OpEQ:
		return relSet{lo: c, hi: c}, true
	case OpNE:
		return relSet{lo: -inf, hi: inf, excl: &c}, true
	}
	return relSet{}, false
}

func (s relSet) contains(v float64) bool {
	if s.excl != nil {
		return v != *s.excl
	}
	if v < s.lo || (v == s.lo && s.loOpen) {
		return false
	}
	if v > s.hi || (v == s.hi && s.hiOpen) {
		return false
	}
	return true
}

// isPoint reports whether the set is the single value v.
func (s relSet) isPoint() (float64, bool) {
	if s.excl == nil && s.lo == s.hi && !s.loOpen && !s.hiOpen {
		return s.lo, true
	}
	return 0, false
}

// disjoint reports whether no value satisfies both sets.
func disjointSets(a, b relSet) bool {
	if a.excl != nil && b.excl != nil {
		return false
	}
	if a.excl != nil {
		a, b = b, a
	}
	if b.excl != nil {
		v, ok := a.isPoint()
		return ok && v == *b.excl
	}
	if a.hi < b.lo || (a.hi == b.lo && (a.hiOpen || b.loOpen)) {
		return true
	}
	if b.hi < a.lo || (b.hi == a.lo && (b.hiOpen || a.loOpen)) {
		return true
	}
	return false
}

// subsetOf reports a ⊆ b.
func subsetOf(a, b relSet) bool {
	if b.excl != nil {
		if a.excl != nil {
			return *a.excl == *b.excl
		}
		return !a.contains(*b.excl)
	}
	if a.excl != nil {
		return false // the punctured line fits only inside another punctured line
	}
	loOK := a.lo > b.lo || (a.lo == b.lo && (!b.loOpen || a.loOpen))
	hiOK := a.hi < b.hi || (a.hi == b.hi && (!b.hiOpen || a.hiOpen))
	return loOK && hiOK
}

// crossFormulaDiags analyzes the formula set as a conjunction: check
// formulas sharing a folded lhs (bit-identical values at runtime) with
// constant rhs form a constraint group, reported when two constraints are
// mutually unsatisfiable or one is implied by the other.
func crossFormulaDiags(fs []*Formula) []diag.Diag {
	type entry struct {
		name string
		pos  Pos
		set  relSet
	}
	groups := map[string][]entry{}
	var order []string
	var diags []diag.Diag
	for k, f := range fs {
		if f.Kind != KindCheck {
			continue
		}
		folded := FoldFormula(f)
		rhs, ok := folded.RHS.(*Num)
		if !ok {
			continue
		}
		if _, lconst := folded.LHS.(*Num); lconst {
			continue // constant relations are loc/const-rel territory
		}
		set, ok := relSetOf(f.Rel, rhs.Value)
		if !ok {
			continue
		}
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("f%d", k+1)
		}
		key := folded.LHS.String()
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], entry{name: name, pos: f.Pos, set: set})
	}
	for _, key := range order {
		es := groups[key]
		for k := 1; k < len(es); k++ {
			for j := 0; j < k; j++ {
				a, b := es[j], es[k]
				switch {
				case disjointSets(a.set, b.set):
					diags = append(diags, finding(b.pos, LintContradiction,
						fmt.Sprintf("mutually unsatisfiable with formula %q: no value of %s satisfies both relations", a.name, key)))
				case subsetOf(a.set, b.set):
					diags = append(diags, finding(b.pos, LintSubsumed,
						fmt.Sprintf("subsumed by formula %q: its relation is stricter on the same expression, so this assertion can only fail when %q already fails", a.name, a.name)))
				case subsetOf(b.set, a.set):
					diags = append(diags, finding(a.pos, LintSubsumed,
						fmt.Sprintf("subsumed by formula %q: its relation is stricter on the same expression, so this assertion can only fail when %q already fails", b.name, b.name)))
				}
			}
		}
	}
	return diags
}

// AnalyzeFormula runs the full static analysis (syntactic lints plus the
// semantic pass) over one formula. Cross-formula findings need the whole
// file; use AnalyzeFile for those.
func AnalyzeFormula(f *Formula, sch *Schema) []diag.Diag {
	diags := append(Lint(f, sch.AnnNames()), semanticDiags(f, sch)...)
	diag.Sort(diags)
	return diags
}

// AnalyzeFile parses formula source and runs the full static analysis over
// every formula plus the cross-formula pass. Parse errors come back as a
// single loc/parse diagnostic with the bool result false, exactly like
// LintFile.
func AnalyzeFile(src string, sch *Schema) ([]diag.Diag, bool) {
	fs, err := ParseFile(src)
	if err != nil {
		return parseDiags(err), false
	}
	var diags []diag.Diag
	for _, f := range fs {
		diags = append(diags, Lint(f, sch.AnnNames())...)
		diags = append(diags, semanticDiags(f, sch)...)
	}
	diags = append(diags, crossFormulaDiags(fs)...)
	diag.Sort(diags)
	return diags, true
}

// StaticAnalysis computes the report analysis block for one formula. It
// deliberately uses only the standard annotation ranges and an open event
// vocabulary — the block must not depend on which simulator configuration
// produced the trace.
func StaticAnalysis(f *Formula) *ReportAnalysis {
	ra := &ReportAnalysis{}
	if f.Kind == KindCheck {
		v, _, _, _ := checkVerdict(f, StandardRanges())
		ra.Verdict = v.String()
	}
	a, err := Analyze(f, nil)
	if err != nil {
		return ra
	}
	bounds := a.Retention()
	ra.Retention = make(map[string]int64, len(bounds))
	for ev, b := range bounds {
		ra.Retention[ev] = b.Instances
		ra.Exact = b.Exact
	}
	return ra
}

// parseDiags converts a parse error into the uniform diagnostics stream.
// *Error carries its own position, so the message is rendered without it —
// one diag type, one renderer.
func parseDiags(err error) []diag.Diag {
	pos, msg := Pos{Line: 1, Col: 1}, err.Error()
	if le, ok := err.(*Error); ok {
		pos, msg = le.Pos, le.Msg
	}
	return []diag.Diag{finding(pos, LintParse, msg)}
}
