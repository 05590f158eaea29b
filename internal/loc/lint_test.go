package loc

import (
	"strings"
	"testing"

	"nepdvs/internal/lint/diag"
)

// lintSchema is a minimal annotation schema for the lint tests; the real
// tools pass core.TraceSchema().
var lintSchema = map[string]bool{"cycle": true, "energy": true, "time": true}

func lintOne(t *testing.T, src string) []diag.Diag {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Lint(f, lintSchema)
}

func rulesOf(ds []diag.Diag) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Rule
	}
	return out
}

func TestLintClean(t *testing.T) {
	for _, src := range []string{
		"cycle(forward[i+1]) - cycle(forward[i]) >= 0",
		"energy(forward[i]) / time(forward[i+50]) cdf [0.5, 2.25, 0.25]",
	} {
		if ds := lintOne(t, src); len(ds) != 0 {
			t.Errorf("Lint(%q) = %v, want clean", src, ds)
		}
	}
}

func TestLintUnknownAnnotation(t *testing.T) {
	ds := lintOne(t, "cycl(forward[i]) >= 0")
	if len(ds) != 1 || ds[0].Rule != LintUnknownAnn {
		t.Fatalf("diags = %v, want one loc/unknown-ann", ds)
	}
	if !strings.Contains(ds[0].Msg, `did you mean "cycle"`) {
		t.Errorf("msg = %q, want a did-you-mean for cycle", ds[0].Msg)
	}

	// Nothing close: list the schema instead of guessing.
	ds = lintOne(t, "watts(forward[i]) >= 0")
	if len(ds) != 1 || !strings.Contains(ds[0].Msg, "trace schema has") {
		t.Fatalf("diags = %v, want schema listing without suggestion", ds)
	}

	// One typo'd annotation used twice reports once.
	ds = lintOne(t, "cycl(forward[i+1]) - cycl(forward[i]) >= 0")
	if len(ds) != 2 {
		t.Fatalf("diags = %v, want 2 (distinct indices are distinct refs)", ds)
	}

	// nil schema disables the check, as in Analyze.
	f, err := Parse("mystery(forward[i]) >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if ds := Lint(f, nil); len(ds) != 0 {
		t.Errorf("Lint with nil schema = %v, want clean", ds)
	}
}

func TestLintUnboundedWindow(t *testing.T) {
	ds := lintOne(t, "cycle(forward[i+5000000]) - cycle(forward[i]) >= 0")
	if len(ds) != 1 || ds[0].Rule != LintWindow {
		t.Fatalf("diags = %v, want one loc/window", ds)
	}
	if !strings.Contains(ds[0].Msg, "5000001 instances") {
		t.Errorf("msg = %q, want the 5000001-instance span", ds[0].Msg)
	}
	// Offsets within the runner's retention limit are fine.
	if ds := lintOne(t, "cycle(forward[i+1000]) - cycle(forward[i]) >= 0"); len(ds) != 0 {
		t.Errorf("bounded window flagged: %v", ds)
	}
}

func TestLintConstantRelation(t *testing.T) {
	ds := lintOne(t, "10 * 5 - 50 == 0")
	rules := rulesOf(ds)
	if len(rules) != 2 || rules[0] != LintConstRel || rules[1] != LintNoEvents {
		t.Fatalf("diags = %v, want loc/const-rel + loc/no-events", ds)
	}
	if !strings.Contains(ds[0].Msg, "constant-folds to true") {
		t.Errorf("msg = %q, want constant-folds to true", ds[0].Msg)
	}
	ds = lintOne(t, "1 > 2")
	if len(ds) != 2 || !strings.Contains(ds[0].Msg, "constant-folds to false") {
		t.Fatalf("diags = %v, want constant-folds to false", ds)
	}
}

func TestLintDivisionByZero(t *testing.T) {
	// The zero only appears after constant folding.
	ds := lintOne(t, "cycle(forward[i]) / (5 - 5) >= 0")
	if len(ds) != 1 || ds[0].Rule != LintDivZero {
		t.Fatalf("diags = %v, want one loc/div-zero", ds)
	}
	// Division by a non-zero constant is fine.
	if ds := lintOne(t, "cycle(forward[i]) / 2 >= 0"); len(ds) != 0 {
		t.Errorf("division by 2 flagged: %v", ds)
	}
}

func TestLintPeriod(t *testing.T) {
	ds := lintOne(t, "cycle(forward[i]) cdf [2, 1, 0.5]")
	if len(ds) != 1 || ds[0].Rule != LintPeriod || !strings.Contains(ds[0].Msg, "max <= min") {
		t.Fatalf("diags = %v, want loc/period max <= min", ds)
	}
	ds = lintOne(t, "cycle(forward[i]) hist [0, 1, 0]")
	if len(ds) != 1 || ds[0].Rule != LintPeriod || !strings.Contains(ds[0].Msg, "non-positive step") {
		t.Fatalf("diags = %v, want loc/period non-positive step", ds)
	}
}

func TestLintAbsoluteIndex(t *testing.T) {
	// The parser rejects negative absolute indices, so exercise the rule on
	// a hand-built formula as programmatic clients would.
	f := &Formula{
		Kind: KindCheck,
		LHS:  &AnnRef{Ann: "cycle", Event: "forward", Index: Index{Rel: false, Offset: -1}},
		Rel:  OpGE,
		RHS:  &Num{Value: 0},
	}
	ds := Lint(f, lintSchema)
	if len(ds) != 1 || ds[0].Rule != LintAbsIndex {
		t.Fatalf("diags = %v, want one loc/abs-index", ds)
	}
}

func TestLintFile(t *testing.T) {
	// Parse errors come back as a single loc/parse diagnostic, parsed=false.
	ds, parsed := LintFile("broken: (((", lintSchema)
	if parsed || len(ds) != 1 || ds[0].Rule != "loc/parse" {
		t.Fatalf("LintFile parse error: diags=%v parsed=%v", ds, parsed)
	}
	// Findings accumulate across formulas.
	src := `a: cycl(forward[i]) >= 0;
b: cycle(forward[i]) / (1 - 1) >= 0;
`
	ds, parsed = LintFile(src, lintSchema)
	if !parsed || len(ds) != 2 {
		t.Fatalf("LintFile: diags=%v parsed=%v, want 2 findings", ds, parsed)
	}
	if ds[0].Rule != LintUnknownAnn || ds[1].Rule != LintDivZero {
		t.Errorf("rules = %v", rulesOf(ds))
	}
	// Clean file, clean result.
	ds, parsed = LintFile("ok: cycle(forward[i+1]) - cycle(forward[i]) >= 0;", lintSchema)
	if !parsed || len(ds) != 0 {
		t.Fatalf("clean LintFile: diags=%v parsed=%v", ds, parsed)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"cycle", "cycle", 0},
		{"cycl", "cycle", 1},
		{"cylce", "cycle", 2},
		{"watts", "cycle", 5},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.d {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}
