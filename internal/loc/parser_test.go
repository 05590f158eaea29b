package loc

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestLexer(t *testing.T) {
	toks, err := lexAll("energy(forward[i+100]) <= 2.5e-1 # comment\n// also\n!= == [ ] , ;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, len(toks))
	for k, tok := range toks {
		kinds[k] = tok.Kind
	}
	want := []TokKind{
		TokIdent, TokLParen, TokIdent, TokLBracket, TokIdent, TokPlus, TokNumber,
		TokRBracket, TokRParen, TokLE, TokNumber,
		TokNE, TokEQ, TokLBracket, TokRBracket, TokComma, TokSemicolon, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for k := range want {
		if kinds[k] != want[k] {
			t.Fatalf("token %d = %v, want %v", k, kinds[k], want[k])
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) || toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("positions = %v, %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"$", "a = b", "a ! b", "@"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q): expected error", src)
		}
	}
}

func TestParsePaperFormulas(t *testing.T) {
	// The three formulas from the paper, in our concrete syntax.
	cases := []string{
		// latency checker (§2.3)
		"cycle(deq[i]) - cycle(enq[i]) <= 50",
		// formula (1): forwarding-time distribution
		"time(forward[i+100]) - time(forward[i]) hist [40, 80, 5]",
		// formula (2): power distribution
		"(energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) cdf [0.5, 2.25, 0.01]",
		// formula (3): throughput distribution
		"(total_bit(forward[i+100]) - total_bit(forward[i])) / 1000000 / ((time(forward[i+100]) - time(forward[i])) / 1000000) ccdf [100, 3300, 10]",
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Round trip.
		f2, err := Parse(f.String())
		if err != nil {
			t.Errorf("reparse of %q (rendered %q): %v", src, f.String(), err)
			continue
		}
		if !equalFormula(f, f2) {
			t.Errorf("round trip changed %q -> %q", src, f2)
		}
	}
}

func TestParseKinds(t *testing.T) {
	f := MustParse("cycle(a[i]) <= 50")
	if f.Kind != KindCheck || f.Rel != OpLE {
		t.Errorf("kind/rel = %v/%v", f.Kind, f.Rel)
	}
	f = MustParse("cycle(a[i]) hist [0, 1, 0.1]")
	if f.Kind != KindDist || f.Dist != DistHist {
		t.Errorf("kind/dist = %v/%v", f.Kind, f.Dist)
	}
	if f.Period != (Period{0, 1, 0.1}) {
		t.Errorf("period = %v", f.Period)
	}
}

func TestParseIndexForms(t *testing.T) {
	cases := []struct {
		src  string
		want Index
	}{
		{"cycle(a[i]) <= 1", Index{Rel: true, Offset: 0}},
		{"cycle(a[i+3]) <= 1", Index{Rel: true, Offset: 3}},
		{"cycle(a[i-2]) <= 1", Index{Rel: true, Offset: -2}},
		{"cycle(a[7]) <= 1", Index{Rel: false, Offset: 7}},
	}
	for _, c := range cases {
		f := MustParse(c.src)
		ref := f.LHS.(*AnnRef)
		got := clearPos(ref.Index)
		if got != c.want {
			t.Errorf("%q index = %+v, want %+v", c.src, got, c.want)
		}
	}
}

func TestParseNegativePeriodNumbers(t *testing.T) {
	f := MustParse("cycle(a[i]) hist [-5, 5, 0.5]")
	if f.Period.Min != -5 {
		t.Errorf("period = %v", f.Period)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"cycle(a[i])",                      // missing operator
		"cycle(a[i]) <=",                   // missing rhs
		"cycle(a[i]) <= 50 extra",          // trailing ident (parsed as dist op -> error)
		"cycle(a[i]) banana [0,1,0.1]",     // unknown dist op
		"cycle(a[i]) hist [0,1]",           // short period
		"cycle(a[i]) hist [0,1,0.1,9]",     // long period
		"cycle(a[j]) <= 1",                 // bad index var
		"cycle(a[i*2]) <= 1",               // non-linear index
		"cycle(i[i]) <= 1",                 // i as event name
		"cycle(a[i+2.5]) <= 1",             // fractional offset
		"cycle(a[]) <= 1",                  // empty index
		"cycle() <= 1",                     // missing event
		"(cycle(a[i]) <= 1",                // unbalanced paren
		"1 + <= 2",                         // dangling op
		"i <= 5",                           // no event reference... parses, fails analysis
		"cycle(a[i]) <= 1; cycle(b[i]) <=", // second formula broken
	}
	for _, src := range cases {
		if src == "i <= 5" {
			f, err := Parse(src)
			if err != nil {
				t.Errorf("Parse(%q) should parse (analysis rejects it): %v", src, err)
				continue
			}
			if _, err := Analyze(f, nil); err == nil {
				t.Errorf("Analyze(%q): expected no-events error", src)
			}
			continue
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseFileNamedFormulas(t *testing.T) {
	src := `
# power and throughput analyzers
power: (energy(forward[i+100]) - energy(forward[i])) /
       (time(forward[i+100]) - time(forward[i])) cdf [0.5, 2.25, 0.01];

latency: cycle(deq[i]) - cycle(enq[i]) <= 50;
cycle(fifo[i]) >= 0
`
	fs, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("parsed %d formulas, want 3", len(fs))
	}
	if fs[0].Name != "power" || fs[1].Name != "latency" || fs[2].Name != "f3" {
		t.Errorf("names = %q, %q, %q", fs[0].Name, fs[1].Name, fs[2].Name)
	}
}

func TestParseFileDuplicateNames(t *testing.T) {
	if _, err := ParseFile("a: cycle(x[i]) <= 1; a: cycle(x[i]) <= 2"); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate-name error, got %v", err)
	}
}

func TestParseFileEmpty(t *testing.T) {
	if _, err := ParseFile("# nothing here\n"); err == nil {
		t.Fatal("expected error for empty formula file")
	}
}

func TestParseFileMissingSemicolon(t *testing.T) {
	if _, err := ParseFile("cycle(a[i]) <= 1 cycle(b[i]) <= 2"); err == nil {
		t.Fatal("expected error for missing separator")
	}
}

// randExpr builds a random well-formed expression tree.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return &Num{Value: float64(rng.Intn(1000)) / 8}
		case 1:
			return &IndexVar{}
		default:
			anns := []string{"cycle", "time", "energy", "total_pkt", "total_bit"}
			evs := []string{"forward", "fifo", "m2_pipeline"}
			var ix Index
			switch rng.Intn(3) {
			case 0:
				ix = Index{Rel: true, Offset: int64(rng.Intn(200)) - 100}
			case 1:
				ix = Index{Rel: true}
			default:
				ix = Index{Rel: false, Offset: int64(rng.Intn(50))}
			}
			return &AnnRef{Ann: anns[rng.Intn(len(anns))], Event: evs[rng.Intn(len(evs))], Index: ix}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return &Unary{X: randExpr(rng, depth-1)}
	case 1:
		return &Call{Fn: "abs", Args: []Expr{randExpr(rng, depth-1)}}
	case 2:
		fns := []string{"min", "max"}
		return &Call{Fn: fns[rng.Intn(2)], Args: []Expr{randExpr(rng, depth-1), randExpr(rng, depth-1)}}
	}
	ops := []byte{'+', '-', '*', '/'}
	return &Binary{Op: ops[rng.Intn(4)], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
}

func randFormula(rng *rand.Rand) *Formula {
	f := &Formula{LHS: randExpr(rng, 4)}
	if rng.Intn(2) == 0 {
		f.Kind = KindCheck
		f.Rel = RelOp(rng.Intn(6))
		f.RHS = randExpr(rng, 3)
	} else {
		f.Kind = KindDist
		f.Dist = DistOp(rng.Intn(3))
		min := float64(rng.Intn(100)) - 50
		f.Period = Period{Min: min, Max: min + 1 + float64(rng.Intn(100)), Step: 0.5}
	}
	return f
}

// Property: parse(f.String()) is structurally identical to f for arbitrary
// well-formed formulas — the printer and parser agree exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randFormula(rng)
		re, err := Parse(orig.String())
		if err != nil {
			t.Logf("rendered %q failed to parse: %v", orig.String(), err)
			return false
		}
		if !equalFormula(orig, re) {
			t.Logf("round trip changed:\n  orig %s\n  got  %s", orig, re)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeWindows(t *testing.T) {
	f := MustParse("energy(forward[i+100]) - energy(forward[i]) + cycle(fifo[i-3]) - time(forward[0]) <= 1")
	a, err := Analyze(f, StandardSchema())
	if err != nil {
		t.Fatal(err)
	}
	fw := a.Windows["forward"]
	if !fw.HasRel || fw.MinOff != 0 || fw.MaxOff != 100 || fw.Span() != 101 {
		t.Errorf("forward window = %+v", fw)
	}
	if len(fw.AbsIndices) != 1 || fw.AbsIndices[0] != 0 {
		t.Errorf("forward abs = %v", fw.AbsIndices)
	}
	ff := a.Windows["fifo"]
	if ff.MinOff != -3 || ff.MaxOff != -3 || ff.Span() != 1 {
		t.Errorf("fifo window = %+v", ff)
	}
	if got := analysisEvents(a); len(got) != 2 || got[0] != "fifo" || got[1] != "forward" {
		t.Errorf("events = %v", got)
	}
	if len(a.Refs) != 4 {
		t.Errorf("refs = %v", a.Refs)
	}
}

func TestAnalyzeDedupRefs(t *testing.T) {
	f := MustParse("energy(forward[i]) + energy(forward[i]) <= 2 * energy(forward[i])")
	a, err := Analyze(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Refs) != 1 {
		t.Errorf("duplicate refs not merged: %v", a.Refs)
	}
}

func TestAnalyzeSchemaRejection(t *testing.T) {
	f := MustParse("watts(forward[i]) <= 1")
	if _, err := Analyze(f, StandardSchema()); err == nil {
		t.Fatal("unknown annotation accepted")
	}
	if _, err := Analyze(f, StandardSchema("watts")); err != nil {
		t.Fatalf("declared extra rejected: %v", err)
	}
	if _, err := Analyze(f, nil); err != nil {
		t.Fatalf("nil schema should defer checking: %v", err)
	}
}

func TestAnalyzeBadPeriods(t *testing.T) {
	for _, src := range []string{
		"cycle(a[i]) hist [0, 1, 0]",
		"cycle(a[i]) hist [0, 1, -1]",
		"cycle(a[i]) hist [1, 1, 0.1]",
		"cycle(a[i]) hist [5, 1, 0.1]",
	} {
		f := MustParse(src)
		if _, err := Analyze(f, nil); err == nil {
			t.Errorf("Analyze(%q): expected period error", src)
		}
	}
}

func TestAnalyzeUsesIndexVar(t *testing.T) {
	a, err := Analyze(MustParse("cycle(a[i]) - i <= 1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.UsesIndexVar {
		t.Error("UsesIndexVar = false")
	}
	a, err = Analyze(MustParse("cycle(a[i]) <= 1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.UsesIndexVar {
		t.Error("UsesIndexVar = true for formula not using i")
	}
}

// equalFormula reports structural equality of two formulas, ignoring names
// and positions.
func equalFormula(a, b *Formula) bool {
	if a.Kind != b.Kind || !EqualExpr(a.LHS, b.LHS) {
		return false
	}
	if a.Kind == KindCheck {
		return a.Rel == b.Rel && EqualExpr(a.RHS, b.RHS)
	}
	return a.Dist == b.Dist && a.Period == b.Period
}

// analysisEvents returns the sorted event names a formula references.
func analysisEvents(a *Analysis) []string {
	out := make([]string, 0, len(a.Windows))
	for e := range a.Windows {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}
