package nepdvs

// End-to-end tests of the command-line tools: build every binary with the
// Go toolchain and drive realistic pipelines (simulate → trace → check /
// summarize, generate traffic → replay, generate a checker → build it).
// Skipped in -short mode.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tools is the one build of all commands shared by every test in the
// process; TestMain removes its dir. Tests only run the binaries, never
// write beside them. A test that needs a second code version must build
// its own copy.
var tools struct {
	once sync.Once
	dir  string
	err  error
}

// buildTools compiles all commands into a temp dir once per test process
// and returns that dir.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries with the go toolchain")
	}
	tools.once.Do(func() {
		dir, err := os.MkdirTemp("", "nepdvs-tools-")
		if err != nil {
			tools.err = err
			return
		}
		tools.dir = dir
		out, err := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...").CombinedOutput()
		if err != nil {
			tools.err = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
		}
	})
	if tools.err != nil {
		t.Fatal(tools.err)
	}
	return tools.dir
}

func runTool(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIPipeline(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	tracePath := filepath.Join(work, "run.trc")

	// 1. Simulate with a trace.
	out, err := runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-level", "high", "-cycles", "600000", "-trace", tracePath)
	if err != nil {
		t.Fatalf("nepsim: %v\n%s", err, out)
	}
	for _, want := range []string{"forwarded", "average power", "ME0"} {
		if !strings.Contains(out, want) {
			t.Errorf("nepsim output missing %q:\n%s", want, out)
		}
	}

	// 2. Summarize the trace.
	out, err = runTool(t, filepath.Join(bins, "tracestat"), tracePath)
	if err != nil {
		t.Fatalf("tracestat: %v\n%s", err, out)
	}
	if !strings.Contains(out, "forward") || !strings.Contains(out, "Mbps") {
		t.Errorf("tracestat output:\n%s", out)
	}

	// 3. Check a passing assertion; expect exit 0.
	out, err = runTool(t, filepath.Join(bins, "locheck"),
		"-e", "total_pkt(forward[i]) == i + 1", tracePath)
	if err != nil {
		t.Fatalf("locheck pass case: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASSED") {
		t.Errorf("locheck output:\n%s", out)
	}

	// 4. Check a failing assertion; expect exit 1.
	out, err = runTool(t, filepath.Join(bins, "locheck"),
		"-e", "energy(forward[i+1]) - energy(forward[i]) <= 0", tracePath)
	if err == nil {
		t.Fatalf("locheck should exit non-zero on violations:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("locheck exit = %v, want 1\n%s", err, out)
	}
	if !strings.Contains(out, "FAILED") {
		t.Errorf("locheck failure output:\n%s", out)
	}

	// 5. Distribution analyzer over the same trace.
	out, err = runTool(t, filepath.Join(bins, "locheck"),
		"-e", "(energy(forward[i+50]) - energy(forward[i])) / (time(forward[i+50]) - time(forward[i])) cdf [0.5, 2.25, 0.25]",
		tracePath)
	if err != nil {
		t.Fatalf("locheck dist: %v\n%s", err, out)
	}
	if !strings.Contains(out, "cdf") {
		t.Errorf("locheck dist output:\n%s", out)
	}
}

// TestCLIAssertionReport pins the -report / -assertions contract: the exit
// codes documented in the locheck doc comment, the report being written even
// when the assertion fails (exit 1), and the schema of the JSON artifact.
func TestCLIAssertionReport(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	tracePath := filepath.Join(work, "run.trc")
	locheck := filepath.Join(bins, "locheck")

	out, err := runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-cycles", "600000", "-trace", tracePath)
	if err != nil {
		t.Fatalf("nepsim: %v\n%s", err, out)
	}

	exitCode := func(err error) int {
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		return -1
	}
	readReport := func(path string) map[string]any {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("report not written: %v", err)
		}
		var rep map[string]any
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatalf("report not JSON: %v\n%s", err, b)
		}
		if rep["schema"] != float64(2) {
			t.Fatalf("report schema = %v, want 2", rep["schema"])
		}
		return rep
	}

	// Passing check: exit 0, report written with verdict pass.
	passRep := filepath.Join(work, "pass.json")
	out, err = runTool(t, locheck, "-e", "total_pkt(forward[i]) == i + 1",
		"-report", passRep, tracePath)
	if code := exitCode(err); code != 0 {
		t.Fatalf("pass case exit = %d, want 0\n%s", code, out)
	}
	if rep := readReport(passRep); !strings.Contains(string(mustJSON(t, rep)), `"verdict":"pass"`) {
		t.Errorf("pass report verdict:\n%v", rep)
	}

	// Failing check: exit 1 and the report is still written, with witnesses.
	failRep := filepath.Join(work, "fail.json")
	out, err = runTool(t, locheck, "-e", "energy(forward[i+1]) - energy(forward[i]) <= 0",
		"-report", failRep, tracePath)
	if code := exitCode(err); code != 1 {
		t.Fatalf("fail case exit = %d, want 1\n%s", code, out)
	}
	failJSON := string(mustJSON(t, readReport(failRep)))
	for _, want := range []string{`"verdict":"fail"`, `"witness":`, `"worst":`, `"density":`} {
		if !strings.Contains(failJSON, want) {
			t.Errorf("fail report missing %s:\n%s", want, failJSON)
		}
	}

	// Unwritable report path: exit 4 (I/O), not 1.
	out, err = runTool(t, locheck, "-e", "total_pkt(forward[i]) == i + 1",
		"-report", filepath.Join(work, "no-such-dir", "r.json"), tracePath)
	if code := exitCode(err); code != 4 {
		t.Fatalf("unwritable report exit = %d, want 4\n%s", code, out)
	}

	// -lint with -report is a usage error: exit 2.
	out, err = runTool(t, locheck, "-lint", "-e", "total_pkt(forward[i]) == i + 1",
		"-report", filepath.Join(work, "r.json"))
	if code := exitCode(err); code != 2 {
		t.Fatalf("-lint -report exit = %d, want 2\n%s", code, out)
	}

	// nepsim -assertions requires -formulas.
	out, err = runTool(t, filepath.Join(bins, "nepsim"),
		"-cycles", "100000", "-assertions", filepath.Join(work, "a.json"))
	if exitCode(err) == 0 {
		t.Fatalf("nepsim -assertions without -formulas succeeded:\n%s", out)
	}

	// nepsim evaluates formulas live and writes the same report shape.
	formulas := filepath.Join(work, "f.loc")
	if err := os.WriteFile(formulas,
		[]byte("order: cycle(forward[i+1]) - cycle(forward[i]) >= 0;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	simRep := filepath.Join(work, "sim.json")
	out, err = runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-cycles", "600000", "-formulas", formulas, "-assertions", simRep)
	if err != nil {
		t.Fatalf("nepsim -assertions: %v\n%s", err, out)
	}
	if rep := readReport(simRep); !strings.Contains(string(mustJSON(t, rep)), `"name":"order"`) {
		t.Errorf("nepsim report:\n%v", rep)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCLITrafficReplay(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	pkts := filepath.Join(work, "packets.txt")

	out, err := runTool(t, filepath.Join(bins, "trafficgen"),
		"-mbps", "700", "-ms", "1.5", "-seed", "7", "-o", pkts)
	if err != nil {
		t.Fatalf("trafficgen: %v\n%s", err, out)
	}
	run := func() string {
		out, err := runTool(t, filepath.Join(bins, "nepsim"),
			"-bench", "nat", "-cycles", "900000", "-packets", pkts)
		if err != nil {
			t.Fatalf("nepsim replay: %v\n%s", err, out)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Error("replayed runs are not byte-identical")
	}
	if !strings.Contains(a, "offered") {
		t.Errorf("replay output:\n%s", a)
	}
}

func TestCLIFormulaFiles(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	formulas := filepath.Join(work, "f.loc")
	if err := os.WriteFile(formulas, []byte(`
power: (energy(forward[i+50]) - energy(forward[i])) /
       (time(forward[i+50]) - time(forward[i])) cdf [0.5, 2.25, 0.25];
order: cycle(forward[i+1]) - cycle(forward[i]) >= 0;
`), 0o644); err != nil {
		t.Fatal(err)
	}
	// nepsim evaluates the formula file live.
	out, err := runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-cycles", "600000", "-formulas", formulas)
	if err != nil {
		t.Fatalf("nepsim -formulas: %v\n%s", err, out)
	}
	if !strings.Contains(out, "formula power") || !strings.Contains(out, "formula order") {
		t.Errorf("nepsim formula output:\n%s", out)
	}
	// locgen picks one formula by name from the file.
	gen := filepath.Join(work, "an.go")
	out, err = runTool(t, filepath.Join(bins, "locgen"), "-f", formulas, "-name", "power", "-o", gen)
	if err != nil {
		t.Fatalf("locgen -f -name: %v\n%s", err, out)
	}
	src, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), `Name: "power",`) || !strings.Contains(string(src), "Dist: true,") {
		t.Error("locgen picked the wrong formula")
	}
	// Ambiguous selection without -name fails.
	if out, err := runTool(t, filepath.Join(bins, "locgen"), "-f", formulas); err == nil {
		t.Errorf("locgen without -name on a multi-formula file should fail:\n%s", out)
	}
}

func TestCLILocgenBuilds(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	gen := filepath.Join(work, "checker.go")
	out, err := runTool(t, filepath.Join(bins, "locgen"),
		"-e", "abs(time(forward[i+1]) - time(forward[i])) >= 0", "-o", gen)
	if err != nil {
		t.Fatalf("locgen: %v\n%s", err, out)
	}
	// The generated program must compile standalone.
	bin := filepath.Join(work, "checker")
	cmd := exec.Command("go", "build", "-o", bin, gen)
	cmd.Dir = work
	if bout, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("generated checker does not build: %v\n%s", err, bout)
	}
}

func TestCLIDvsexploreStaticFigs(t *testing.T) {
	bins := buildTools(t)
	outdir := t.TempDir()
	out, err := runTool(t, filepath.Join(bins, "dvsexplore"),
		"-outdir", outdir, "fig1", "fig2", "fig5")
	if err != nil {
		t.Fatalf("dvsexplore: %v\n%s", err, out)
	}
	for _, f := range []string{"fig1.dat", "fig2.dat", "fig2.svg", "fig5.dat"} {
		if _, err := os.Stat(filepath.Join(outdir, f)); err != nil {
			t.Errorf("missing output %s", f)
		}
	}
	// -list enumerates experiments.
	out, err = runTool(t, filepath.Join(bins, "dvsexplore"), "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig11") || !strings.Contains(out, "ablation-oracle") {
		t.Errorf("-list output:\n%s", out)
	}
}

// TestCLIPolicyRegistry drives the registry surface of both front ends:
// -list-policies enumerates every policy with its parameter docs, -p
// parameters reach the policy, and a misspelled parameter fails with a
// did-you-mean hint.
func TestCLIPolicyRegistry(t *testing.T) {
	bins := buildTools(t)

	for _, tool := range []string{"nepsim", "dvsexplore"} {
		out, err := runTool(t, filepath.Join(bins, tool), "-list-policies")
		if err != nil {
			t.Fatalf("%s -list-policies: %v\n%s", tool, err, out)
		}
		for _, want := range []string{"tdvs", "edvs", "combined", "oracle", "pid", "psm", "(required)", "aliases:"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s -list-policies missing %q:\n%s", tool, want, out)
			}
		}
	}

	// A registry policy with -p overrides runs end to end.
	out, err := runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-level", "high", "-cycles", "400000",
		"-policy", "pid", "-p", "kp=4", "-p", "setpoint_frac=0.15")
	if err != nil {
		t.Fatalf("nepsim -policy pid: %v\n%s", err, out)
	}
	if !strings.Contains(out, "policy         pid") {
		t.Errorf("nepsim output missing the pid policy line:\n%s", out)
	}

	// A legacy alias still resolves through the registry.
	out, err = runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-level", "low", "-cycles", "400000",
		"-policy", "TDVS", "-threshold", "1000", "-window", "40000")
	if err != nil {
		t.Fatalf("nepsim -policy TDVS: %v\n%s", err, out)
	}
	if !strings.Contains(out, "policy         tdvs") {
		t.Errorf("nepsim output missing the canonical tdvs policy line:\n%s", out)
	}

	// Misspelled parameters die with a hint instead of simulating.
	out, err = runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-cycles", "400000", "-policy", "pid", "-p", "window_cycle=100")
	if err == nil {
		t.Fatalf("nepsim with a misspelled parameter succeeded:\n%s", out)
	}
	if !strings.Contains(out, "did you mean") {
		t.Errorf("misspelled parameter error lacks a did-you-mean hint:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	bins := buildTools(t)
	cases := []struct {
		tool string
		args []string
		code int // required exit status; 0 accepts any failure
	}{
		{"nepsim", []string{"-bench", "bogus"}, 0},
		{"nepsim", []string{"-policy", "bogus"}, 0},
		{"nepsim", []string{"-level", "bogus"}, 0},
		{"locheck", []string{}, 0},
		{"locheck", []string{"-e", "syntax error (", "/dev/null"}, 0},
		{"locgen", []string{}, 0},
		{"trafficgen", []string{"-mbps", "-5"}, 0},
		// A bad selection is a usage error raised before fig10 simulates.
		{"dvsexplore", []string{"fig10", "nonexistent-experiment"}, 2},
		{"dvsexplore", []string{"fig1", "fig1"}, 2},
		{"tracestat", []string{"/nonexistent/file"}, 0},
	}
	for _, c := range cases {
		out, err := runTool(t, filepath.Join(bins, c.tool), c.args...)
		if err == nil {
			t.Errorf("%s %v: expected failure\n%s", c.tool, c.args, out)
		} else if ee, ok := err.(*exec.ExitError); c.code != 0 && (!ok || ee.ExitCode() != c.code) {
			t.Errorf("%s %v: %v, want exit status %d\n%s", c.tool, c.args, err, c.code, out)
		}
	}
}

// TestCLITraceWriteFailure: a trace file that cannot be written fails the
// run, and the error names the file.
func TestCLITraceWriteFailure(t *testing.T) {
	bins := buildTools(t)
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	out, err := runTool(t, filepath.Join(bins, "nepsim"),
		"-bench", "ipfwdr", "-level", "high", "-cycles", "300000", "-pipeline", "-trace", "/dev/full")
	if err == nil {
		t.Fatalf("nepsim writing its trace to /dev/full exited 0:\n%s", out)
	}
	if !strings.Contains(out, "/dev/full") {
		t.Errorf("error output does not name the trace file:\n%s", out)
	}
}

// TestCLILintExitCodes pins the exit-code contract of the static-analysis
// front ends: 0 clean, 2 parse/usage, 3 lint finding, 4 I/O failure (the
// internal/cli convention).
func TestCLILintExitCodes(t *testing.T) {
	bins := buildTools(t)
	locheck := filepath.Join(bins, "locheck")
	locgen := filepath.Join(bins, "locgen")
	exitCode := func(err error) int {
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		return -1
	}

	// Clean formula lints silently with status 0.
	out, err := runTool(t, locheck, "-lint", "-e", "cycle(forward[i+1]) - cycle(forward[i]) >= 0")
	if code := exitCode(err); code != 0 {
		t.Errorf("locheck -lint clean: exit %d, want 0\n%s", code, out)
	}

	// A lint finding exits 3 and names the rule.
	out, err = runTool(t, locheck, "-lint", "-e", "cycl(forward[i]) >= 0")
	if code := exitCode(err); code != 3 {
		t.Errorf("locheck -lint finding: exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "loc/unknown-ann") || !strings.Contains(out, "did you mean") {
		t.Errorf("locheck -lint output:\n%s", out)
	}

	// A parse error is a malformed invocation: exit 2, like flag errors.
	out, err = runTool(t, locheck, "-lint", "-e", "broken (((")
	if code := exitCode(err); code != 2 {
		t.Errorf("locheck -lint parse error: exit %d, want 2\n%s", code, out)
	}

	// An unreadable formula file is an I/O failure: exit 4.
	out, err = runTool(t, locheck, "-lint", "-f", "/nonexistent/f.loc")
	if code := exitCode(err); code != 4 {
		t.Errorf("locheck missing -f: exit %d, want 4\n%s", code, out)
	}

	// locgen refuses to generate code from a formula with findings.
	gen := filepath.Join(t.TempDir(), "out.go")
	out, err = runTool(t, locgen, "-e", "cycl(forward[i]) >= 0", "-o", gen)
	if code := exitCode(err); code != 3 {
		t.Errorf("locgen lint finding: exit %d, want 3\n%s", code, out)
	}
	if _, serr := os.Stat(gen); serr == nil {
		t.Error("locgen wrote output despite lint findings")
	}
	out, err = runTool(t, locgen, "-f", "/nonexistent/f.loc")
	if code := exitCode(err); code != 4 {
		t.Errorf("locgen missing -f: exit %d, want 4\n%s", code, out)
	}
}

// TestCLIRunTimeout: a run that cannot finish inside -run-timeout must die
// with exit status 1 and a watchdog message instead of hanging forever.
func TestCLIRunTimeout(t *testing.T) {
	bins := buildTools(t)
	// 2·10⁹ cycles would simulate for minutes; the 300 ms watchdog must
	// cut it down.
	out, err := runTool(t, filepath.Join(bins, "dvsexplore"),
		"-quiet", "-cycles", "2000000000", "-run-timeout", "300ms", "idle")
	if err == nil {
		t.Fatalf("timed-out exploration exited 0:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(out, "watchdog") || !strings.Contains(out, "deadline") {
		t.Errorf("no watchdog/deadline message in output:\n%s", out)
	}
}

// TestCLIFaultInjection drives nepsim with fault plans: a hardware plan
// perturbs the run and reports fault stats; an injected hang is caught by
// -run-timeout; an injected panic is reported as an error, not a crash dump
// from a dying process.
func TestCLIFaultInjection(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	nepsim := filepath.Join(bins, "nepsim")

	dropPlan := filepath.Join(work, "drop.json")
	if err := os.WriteFile(dropPlan, []byte(`{
		"Seed": 1,
		"Faults": [{"Kind": "port_drop", "Unit": "port0", "OnsetCycle": 10000, "DurationCycles": 400000}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, nepsim, "-bench", "ipfwdr", "-level", "high",
		"-cycles", "600000", "-faults", dropPlan)
	if err != nil {
		t.Fatalf("nepsim with drop plan: %v\n%s", err, out)
	}
	if !strings.Contains(out, "faults") || !strings.Contains(out, "armed") {
		t.Errorf("no fault stats in output:\n%s", out)
	}

	hangPlan := filepath.Join(work, "hang.json")
	if err := os.WriteFile(hangPlan, []byte(`{
		"Seed": 1,
		"Faults": [{"Kind": "hang", "OnsetCycle": 10000}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runTool(t, nepsim, "-bench", "ipfwdr", "-cycles", "600000",
		"-faults", hangPlan, "-run-timeout", "300ms")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("hung nepsim exit = %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(out, "watchdog") {
		t.Errorf("no watchdog message:\n%s", out)
	}

	panicPlan := filepath.Join(work, "panic.json")
	if err := os.WriteFile(panicPlan, []byte(`{
		"Seed": 1,
		"Faults": [{"Kind": "panic", "OnsetCycle": 10000}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runTool(t, nepsim, "-bench", "ipfwdr", "-cycles", "600000",
		"-faults", panicPlan)
	ee, ok = err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("panicked nepsim exit = %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(out, "run panicked") || strings.Contains(out, "goroutine ") {
		t.Errorf("want a recovered-panic error, not a crash dump:\n%s", out)
	}
}

// TestCLICacheResume: the run cache is how an exploration resumes. After k
// of its entries are lost, a rerun over the same cache simulates exactly
// those k runs and writes the same reports.
func TestCLICacheResume(t *testing.T) {
	bins := buildTools(t)
	dvsexplore := filepath.Join(bins, "dvsexplore")
	work := t.TempDir()
	c := filepath.Join(work, "c")
	explore := func(outdir string) manifest {
		t.Helper()
		out, err := runTool(t, dvsexplore, "-quiet", "-cache", c, "-cycles", "200000",
			"-outdir", outdir, "idle", "fig10", "fig1")
		if err != nil {
			t.Fatalf("dvsexplore into %s: %v\n%s", outdir, err, out)
		}
		var m manifest
		if err := json.Unmarshal(readFile(t, filepath.Join(outdir, "manifest.json")), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := filepath.Join(work, "a"), filepath.Join(work, "b")
	first := explore(a)

	entries, err := filepath.Glob(filepath.Join(c, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Metrics.Counters["experiments_runs_completed"]; len(entries) != 6 || n != 6 {
		t.Fatalf("first run simulated %d runs and left %d cache entries, want 6 each", n, len(entries))
	}
	const k = 2
	for _, e := range entries[:k] {
		if err := os.Remove(e); err != nil {
			t.Fatal(err)
		}
	}
	second := explore(b)
	if second.Cache.Misses != k || second.Cache.Hits != 6-k {
		t.Errorf("resumed run cache block %+v, want %d misses and %d hits", second.Cache, k, 6-k)
	}
	if n := second.Metrics.Counters["experiments_runs_completed"]; n != k {
		t.Errorf("resumed run simulated %d runs, want %d", n, k)
	}
	files, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name() == "manifest.json" {
			continue
		}
		if !bytes.Equal(readFile(t, filepath.Join(a, f.Name())), readFile(t, filepath.Join(b, f.Name()))) {
			t.Errorf("%s differs between the first and the resumed run", f.Name())
		}
	}
	if n, err := os.ReadDir(b); err != nil || len(n) != len(files) {
		t.Errorf("resumed run wrote %d files, first run %d (%v)", len(n), len(files), err)
	}
}

// TestCLICheckpointResume: dvsexplore has no step checkpoint any more;
// resume goes through -cache (TestCLICacheResume). -checkpoint is not a
// flag: naming it is a usage error whose usage text offers -cache, and it
// writes nothing.
func TestCLICheckpointResume(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	outdir := filepath.Join(work, "out")
	out, err := runTool(t, filepath.Join(bins, "dvsexplore"), "-checkpoint", filepath.Join(work, "ck"),
		"-outdir", outdir, "fig1")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("dvsexplore -checkpoint: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(out, "-checkpoint") || !strings.Contains(out, "-cache") {
		t.Errorf("usage error does not name both -checkpoint and -cache:\n%s", out)
	}
	for _, dir := range []string{"ck", "out"} {
		if _, err := os.Stat(filepath.Join(work, dir)); !os.IsNotExist(err) {
			t.Errorf("rejected invocation created %s (%v)", dir, err)
		}
	}
}

// manifest is the part of a run manifest the CLI tests read.
type manifest struct {
	Metrics struct {
		Counters map[string]uint64 `json:"counters"`
	} `json:"metrics"`
	Cache struct {
		Hits, Misses uint64
	} `json:"cache"`
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
