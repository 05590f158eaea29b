package loc

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nepdvs/internal/trace"
)

// runtimeBody is the embedded runtime source after its package clause, the
// part every generated program must carry verbatim.
func runtimeBody(t *testing.T) string {
	t.Helper()
	_, body, ok := strings.Cut(rtSource, "\npackage rt\n")
	if !ok {
		t.Fatal("embedded runtime has no package rt clause")
	}
	return body
}

func TestGenerateGoContainsArtifacts(t *testing.T) {
	f := MustParse("(energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) cdf [0.5, 2.25, 0.01]")
	f.Name = "power"
	src, err := GenerateGo(f, StandardSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package main\n" + runtimeBody(t),
		`Name: "power",`,
		"Dist: true,",
		`newHist("cdf", 0.5, 2.25, 0.01)`,
		`{Src: "energy(forward[i+100])", Ann: "energy", Event: "forward", Rel: true, Off: 100}`,
		`Retention: map[string]int64{"forward": 101}`,
		"func main()",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestGenerateGoChecker(t *testing.T) {
	f := MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50")
	src, err := GenerateGo(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Rel:  0, // <=", "RHS: Program{", "Main(os.Args[1:], formula, analysis, nil)"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if strings.Contains(src, "Dist: true") || strings.Contains(src, "type hist struct") {
		t.Error("checker source carries distribution artifacts")
	}
}

func TestGenerateGoRejectsBadFormula(t *testing.T) {
	f := MustParse("watts(x[i]) <= 1")
	if _, err := GenerateGo(f, StandardSchema()); err == nil {
		t.Fatal("schema violation not reported")
	}
}

// writeTextTrace writes evs as a text trace into dir and returns its path.
func writeTextTrace(t *testing.T, dir string, evs []trace.Event) string {
	t.Helper()
	path := filepath.Join(dir, "trace.txt")
	tf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tw := trace.NewTextWriter(tf)
	for i := range evs {
		if err := tw.Emit(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildChecker generates the checker for formula and builds it into a
// binary under dir. A real binary (not `go run`) keeps the exit status
// observable: `go run` collapses every child status to its own exit 1.
func buildChecker(t *testing.T, dir, name, formula string) string {
	t.Helper()
	src, err := GenerateGo(MustParse(formula), nil)
	if err != nil {
		t.Fatal(err)
	}
	mainPath := filepath.Join(dir, name+".go")
	if err := os.WriteFile(mainPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", binPath, mainPath)
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return binPath
}

// runChecker runs a built checker and returns its combined output and exit
// status.
func runChecker(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("run %s: %v", bin, err)
	}
	return string(out), ee.ExitCode()
}

// TestGeneratedCheckerRuns builds and runs a generated checker with the Go
// toolchain, comparing its verdict with the in-process runner on the same
// trace. Skipped in -short mode (it shells out to the go toolchain).
func TestGeneratedCheckerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	formula := "cycle(deq[i]) - cycle(enq[i]) <= 50"
	evs := mkTrace(50, func(k int) uint64 {
		if k == 7 {
			return 99
		}
		return 30
	})
	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, evs)
	out, code := runChecker(t, buildChecker(t, dir, "checker", formula), tracePath)
	// One violation -> exit code 1.
	if code != 1 {
		t.Fatalf("generated checker exited %d on violating trace; output:\n%s", code, out)
	}
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "1 violations") {
		t.Fatalf("generated checker output:\n%s", out)
	}
	if !strings.Contains(out, "i=7") {
		t.Fatalf("generated checker did not identify instance 7:\n%s", out)
	}
}

// TestGeneratedCheckerExitStatus feeds a generated analyzer malformed
// traces and asserts it dies with status 2 — a malformed trace must never
// be reported as a pass (exit 0) or be confused with an assertion
// violation (exit 1). Every case is a line locheck's trace reader rejects
// too. Skipped in -short mode (shells out to the go toolchain).
func TestGeneratedCheckerExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	dir := t.TempDir()
	binPath := buildChecker(t, dir, "checker", "cycle(deq[i]) - cycle(enq[i]) <= 50")
	cases := []struct {
		name, input string
	}{
		{"too-few-fields", "1 2 3\n"},
		{"bad-number", "x 2 3 4 5 enq\n"},
		{"bad-extra", "1 2 3 4 5 enq junk\n"},
		{"fractional-cycle", "1.5 0 0 0 0 forward\n"},
		{"negative-cycle", "-3 0 0 0 0 forward\n"},
		{"fractional-total-pkt", "1 0 0 2.5 0 forward\n"},
		{"empty-extra-key", "1 0 0 0 0 forward =5\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracePath := filepath.Join(dir, c.name+".txt")
			if err := os.WriteFile(tracePath, []byte(c.input), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := trace.Summarize(trace.NewTextReader(strings.NewReader(c.input))); err == nil {
				t.Fatal("trace.TextReader accepts the input; the case tests nothing")
			}
			if out, code := runChecker(t, binPath, tracePath); code != 2 {
				t.Fatalf("exit = %d, want 2; output:\n%s", code, out)
			}
		})
	}
	// A missing trace file is also status 2.
	if out, code := runChecker(t, binPath, filepath.Join(dir, "nope.txt")); code != 2 {
		t.Fatalf("missing file: exit %d, want 2; output:\n%s", code, out)
	}
}

// TestGeneratedDistMatchesRunner compares a generated distribution
// analyzer's table against the in-process runner bin by bin.
func TestGeneratedDistMatchesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	formula := "cycle(forward[i+10]) - cycle(forward[i]) cdf [0, 200, 50]"
	evs := mkTrace(60, func(k int) uint64 { return uint64(20 + k%3) })

	res := runOne(t, formula, evs)
	want := res.Dist.Render()

	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, evs)
	out, code := runChecker(t, buildChecker(t, dir, "analyzer", formula), tracePath)
	if code != 0 {
		t.Fatalf("generated analyzer exited %d:\n%s", code, out)
	}
	// Compare the numeric rows (skip headers, which differ in wording).
	gotRows := dataRows(out)
	wantRows := dataRows(want)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("row count mismatch: generated %d vs runner %d\ngen:\n%s\nrunner:\n%s",
			len(gotRows), len(wantRows), out, want)
	}
	for k := range wantRows {
		if gotRows[k] != wantRows[k] {
			t.Errorf("row %d: generated %q vs runner %q", k, gotRows[k], wantRows[k])
		}
	}
}

// TestGeneratedReportByteIdentical asserts that, for one trace, the
// assertion report written by a locgen-generated checker is byte-identical
// to the one the in-process VM builds — witnesses, worst offender, density
// and all — and that a check's verdict block matches locheck's. The table
// covers zero, positive and pinned offsets and a distribution. Both paths
// parse the same text trace so the float64 inputs are bit-equal. Skipped in
// -short mode (shells out to the go toolchain).
func TestGeneratedReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("requires go toolchain run")
	}
	evs := mkTrace(40, func(k int) uint64 {
		if k%7 == 0 {
			return uint64(60 + k)
		}
		return 30
	})
	dir := t.TempDir()
	tracePath := writeTextTrace(t, dir, evs)
	for k, formula := range []string{
		"cycle(deq[i]) - cycle(enq[i]) <= 50",
		"cycle(deq[i+1]) - cycle(enq[i]) <= 50",
		"cycle(forward[i]) - cycle(forward[10]) <= 5",
		"cycle(forward[i+10]) - cycle(forward[i]) cdf [0, 200, 50]",
	} {
		t.Run(formula, func(t *testing.T) {
			// VM path: re-read the written trace so both evaluators see the
			// exact same parsed floats.
			in, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			source, err := trace.OpenSource(in)
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunFormulas(formula, source, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := BuildReport(results)
			want, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			wantCode := 0
			for _, fr := range rep.Formulas {
				if fr.Verdict == "fail" || fr.Verdict == "indeterminate" {
					wantCode = 1
				}
			}

			bin := buildChecker(t, dir, "checker"+string(rune('a'+k)), formula)
			reportPath := bin + ".json"
			out, code := runChecker(t, bin, "-report", reportPath, tracePath)
			if code != wantCode {
				t.Fatalf("exit = %d, want %d; output:\n%s", code, wantCode, out)
			}
			got, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatalf("generated checker wrote no report: %v\noutput:\n%s", err, out)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("generated report differs from VM report:\n--- generated ---\n%s\n--- vm ---\n%s", got, want)
			}
			if r := results[0]; r.Check != nil && out != r.Summary() {
				t.Fatalf("generated output differs from the VM summary:\n--- generated ---\n%s\n--- vm ---\n%s", out, r.Summary())
			}
		})
	}
}

func dataRows(s string) []string {
	var rows []string
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "formula") {
			continue
		}
		if strings.ContainsRune(line, '\t') {
			rows = append(rows, line)
		}
	}
	return rows
}
