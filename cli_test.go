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

// exitCode is the exit status behind a runTool error: 0 for nil, -1 when
// the process did not exit normally.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
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
	if code := exitCode(err); code != 1 {
		t.Fatalf("locheck exit = %d, want 1\n%s", code, out)
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

// timelineTracks parses a Chrome trace-event file as nepsim and tracestat
// -timeline write it. It requires thread_name metadata naming the tracks
// and a non-negative dur on every complete ("X") span, and returns, per
// track name, the number of events and of complete spans.
func timelineTracks(t *testing.T, path string) (events, spans map[string]int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, path), &doc); err != nil {
		t.Fatalf("%s: not trace-event JSON: %v", path, err)
	}
	names := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names[ev.Tid], _ = ev.Args["name"].(string)
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: no thread_name metadata", path)
	}
	events, spans = map[string]int{}, map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		track := names[ev.Tid]
		events[track]++
		if ev.Ph == "X" {
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("%s: span %q on %s has no duration", path, ev.Name, track)
			}
			spans[track]++
		}
	}
	return events, spans
}

// TestCLITimeline drives the timeline exporters from the command line:
// identical nepsim -timeline invocations write byte-identical files with
// execution spans on every ME track, and a stored trace round-trips
// through tracestat -json -timeline.
func TestCLITimeline(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	trc := filepath.Join(work, "run.trc")
	a, b := filepath.Join(work, "a.json"), filepath.Join(work, "b.json")
	for _, args := range [][]string{{"-trace", trc, "-timeline", a}, {"-timeline", b}} {
		args = append([]string{"-bench", "ipfwdr", "-level", "high", "-cycles", "2500000",
			"-seed", "1", "-manifest", "off"}, args...)
		if out, err := runTool(t, filepath.Join(bins, "nepsim"), args...); err != nil {
			t.Fatalf("nepsim %v: %v\n%s", args, err, out)
		}
	}
	if !bytes.Equal(readFile(t, a), readFile(t, b)) {
		t.Error("identical runs wrote different timelines")
	}
	_, spans := timelineTracks(t, a)
	for me := 0; me < 6; me++ {
		if track := fmt.Sprintf("me%d", me); spans[track] == 0 {
			t.Errorf("timeline track %s carries no spans", track)
		}
	}

	// Stored traces convert to instants and counters, not spans.
	converted := filepath.Join(work, "trace.json")
	out, err := runTool(t, filepath.Join(bins, "tracestat"), "-json", "-timeline", converted, trc)
	if err != nil {
		t.Fatalf("tracestat: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"forward_mbps"`) {
		t.Errorf("tracestat -json summary lacks forward_mbps:\n%s", out)
	}
	timelineTracks(t, converted)
}

// TestCLIViolatingPreset drives a deliberately violating LOC preset through
// every assertion surface (DESIGN.md §16): nepsim's live report and the
// assert track of its timeline, locheck's replay of the stored NPT1 trace,
// a rerun, and locgen-generated checkers, which must report byte for byte
// what locheck reports for the preset's failing formula and for every
// formula of the shipped profiles.
func TestCLIViolatingPreset(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	nepsim, locheck, locgen := filepath.Join(bins, "nepsim"), filepath.Join(bins, "locheck"), filepath.Join(bins, "locgen")

	// spacing fails on every adjacent forward pair (cycles strictly
	// increase), order passes, power is a distribution.
	const spacing = "spacing: cycle(forward[i+1]) - cycle(forward[i]) <= 0;"
	preset := filepath.Join(work, "viol.loc")
	if err := os.WriteFile(preset, []byte(spacing+`
order: total_pkt(forward[i]) == i + 1;
power: (energy(forward[i+50]) - energy(forward[i])) /
       (time(forward[i+50]) - time(forward[i])) cdf [0.5, 2.25, 0.25];
`), 0o644); err != nil {
		t.Fatal(err)
	}
	simulate := func(args ...string) {
		t.Helper()
		args = append([]string{"-bench", "ipfwdr", "-level", "high", "-cycles", "1200000",
			"-seed", "1", "-manifest", "off", "-formulas", preset}, args...)
		if out, err := runTool(t, nepsim, args...); err != nil {
			t.Fatalf("nepsim %v: %v\n%s", args, err, out)
		}
	}
	live, timeline, npt := filepath.Join(work, "live.json"), filepath.Join(work, "tl.json"), filepath.Join(work, "run.npt")
	simulate("-binary", "-trace", npt, "-assertions", live, "-timeline", timeline)
	report := readFile(t, live)
	for _, field := range []string{`"schema": 2`, `"formulas"`, `"name": "spacing"`,
		`"verdict": "fail"`, `"verdict": "pass"`, `"verdict": "dist"`, `"witness"`, `"worst"`,
		`"density"`, `"retained"`, `"window_peak"`, `"analysis"`, `"retention"`} {
		if !bytes.Contains(report, []byte(field)) {
			t.Errorf("report lacks %s", field)
		}
	}
	if events, _ := timelineTracks(t, timeline); events["assert"] == 0 {
		t.Error("timeline has no assert track")
	}

	// NPT1 keeps float64 bits, so locheck's replay of the stored trace must
	// reproduce the live report byte for byte.
	replay := filepath.Join(work, "replay.json")
	out, err := runTool(t, locheck, "-f", preset, "-report", replay, npt)
	if code := exitCode(err); code != 1 {
		t.Fatalf("locheck on the violating trace: exit %d, want 1\n%s", code, out)
	}
	if !bytes.Equal(readFile(t, replay), report) {
		t.Error("live and replayed assertion reports differ")
	}

	// The rerun also writes the text trace that generated checkers read.
	rerun, txt := filepath.Join(work, "rerun.json"), filepath.Join(work, "run.txt")
	simulate("-trace", txt, "-assertions", rerun)
	if !bytes.Equal(readFile(t, rerun), report) {
		t.Error("a rerun wrote a different assertion report")
	}

	// A generated checker and locheck read the same text trace, so their
	// float64 inputs, exit codes and reports must be identical. Each go
	// build takes a while, so the checkers build in parallel.
	formulas := []string{spacing}
	for _, profile := range []string{"profiles/standard.loc", "profiles/robustness.loc"} {
		formulas = append(formulas, profileFormulas(t, profile)...)
	}
	t.Run("checkers", func(t *testing.T) {
		for _, src := range formulas {
			name, _, _ := strings.Cut(src, ":")
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				f := filepath.Join(dir, "f.loc")
				if err := os.WriteFile(f, []byte(src+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				vmReport, genReport := filepath.Join(dir, "vm.json"), filepath.Join(dir, "gen.json")
				_, err := runTool(t, locheck, "-f", f, "-report", vmReport, txt)
				vm := exitCode(err)
				if out, err := runTool(t, locgen, "-f", f, "-o", filepath.Join(dir, "checker.go")); err != nil {
					t.Fatalf("locgen: %v\n%s", err, out)
				}
				build := exec.Command("go", "build", "-o", "checker", "checker.go")
				build.Dir = dir
				if out, err := build.CombinedOutput(); err != nil {
					t.Fatalf("generated checker does not build: %v\n%s", err, out)
				}
				_, err = runTool(t, filepath.Join(dir, "checker"), "-report", genReport, txt)
				if gen := exitCode(err); vm > 1 || gen != vm || (name == "spacing" && vm != 1) {
					t.Fatalf("locheck exited %d, generated checker %d", vm, gen)
				}
				if !bytes.Equal(readFile(t, vmReport), readFile(t, genReport)) {
					t.Error("generated checker report differs from locheck's")
				}
			})
		}
	})
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
		// A rate or duration that is not a positive finite number: NaN
		// passes a plain range test, and a NaN rate never ends the stream.
		{"nepsim", []string{"-mbps", "NaN"}, 0},
		{"nepsim", []string{"-mbps", "-5"}, 0},
		{"trafficgen", []string{"-mbps", "-5"}, 0},
		{"trafficgen", []string{"-mbps", "NaN", "-ms", "1"}, 0},
		{"trafficgen", []string{"-mbps", "Inf", "-ms", "0.01"}, 0},
		{"trafficgen", []string{"-ms", "NaN"}, 0},
		{"trafficgen", []string{"-ms", "1e300"}, 0},
		// A bad selection is a usage error raised before fig10 simulates.
		{"dvsexplore", []string{"fig10", "nonexistent-experiment"}, 2},
		{"dvsexplore", []string{"fig1", "fig1"}, 2},
		{"tracestat", []string{"/nonexistent/file"}, 0},
	}
	for _, c := range cases {
		out, err := runTool(t, filepath.Join(bins, c.tool), c.args...)
		if err == nil {
			t.Errorf("%s %v: expected failure\n%s", c.tool, c.args, out)
		} else if c.code != 0 && exitCode(err) != c.code {
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

	// The semantic pass passes a shipped profile and exits 3 on a
	// tautology.
	out, err = runTool(t, locheck, "-analyze", "-f", "profiles/standard.loc")
	if code := exitCode(err); code != 0 {
		t.Errorf("locheck -analyze profile: exit %d, want 0\n%s", code, out)
	}
	out, err = runTool(t, locheck, "-analyze", "-e", "energy(forward[i]) >= -1")
	if code := exitCode(err); code != 3 {
		t.Errorf("locheck -analyze tautology: exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "loc/tautology") {
		t.Errorf("locheck -analyze output:\n%s", out)
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

// TestCLINepvetFixtures proves the lint gate can fail: on each known-bad
// fixture under testdata/lint/, nepvet exits 1 and prints exactly the
// golden diagnostics of its .want file.
func TestCLINepvetFixtures(t *testing.T) {
	nepvet := filepath.Join(buildTools(t), "nepvet")
	for _, c := range []struct {
		name, want string
		args       []string
	}{
		// A wall-clock read inside a (fixture) deterministic package.
		{"badgo", "badgo.want", []string{"-root", "testdata/lint/badgo", "-det", "clock"}},
		// A branch to an undefined label in microengine assembly.
		{"badasm", "bad.asm.want", []string{"-asm", "testdata/lint/bad.asm"}},
		// A formula naming an annotation the trace schema does not have.
		{"badloc", "bad.loc.want", []string{"-loc", "testdata/lint/bad.loc"}},
		// The semantic pass: a formula that can never fire (a typo'd event
		// name), a tautology and a contradiction.
		{"vacuousloc", "vacuous.loc.want", []string{"-loc", "testdata/lint/vacuous.loc"}},
		// An allowlist entry that exempts nothing, beside the fixture's
		// real finding.
		{"staleallow", "stale.allow.want", []string{"-root", "testdata/lint/badgo", "-det", "clock",
			"-allow", "testdata/lint/stale.allow"}},
		// An inline allow that suppresses nothing, beside one that does.
		{"staleinline", "staleinline.want", []string{"-root", "testdata/lint/staleinline"}},
		// Exported API of an internal/ package: an unused func and one only
		// a test calls are flagged; one a main calls, a String method and an
		// allowed helper are not.
		{"deadapi", "deadapi.want", []string{"-root", "testdata/lint/deadapi"}},
	} {
		out, err := exec.Command(nepvet, c.args...).Output()
		if code := exitCode(err); code != 1 {
			t.Errorf("%s: nepvet exit %d, want 1\n%s", c.name, code, out)
		}
		if want := readFile(t, filepath.Join("testdata/lint", c.want)); !bytes.Equal(out, want) {
			t.Errorf("%s: diagnostics differ from %s:\ngot:\n%s\nwant:\n%s", c.name, c.want, out, want)
		}
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
	if code := exitCode(err); code != 1 {
		t.Fatalf("exit = %d, want status 1\n%s", code, out)
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
	if code := exitCode(err); code != 1 {
		t.Fatalf("hung nepsim exit = %d, want status 1\n%s", code, out)
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
	if code := exitCode(err); code != 1 {
		t.Fatalf("panicked nepsim exit = %d, want status 1\n%s", code, out)
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
	if exitCode(err) != 2 {
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
