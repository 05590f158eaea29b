package nepdvs

// End-to-end test of the exploration service: boot dvsd on a loopback port,
// drive it with dvsctl (submit a TDVS sweep, poll, fetch the artifact), and
// assert the served result is byte-identical to running the same sweep
// directly through core.SweepTDVS. Skipped in -short mode.

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/jobs"
	"nepdvs/internal/loc"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// startDaemon boots dvsd with -addr 127.0.0.1:0 and returns its bound
// address plus a stop function that SIGTERMs it and waits for the drain.
func startDaemon(t *testing.T, bins string, extra ...string) (addr string, stop func()) {
	t.Helper()
	work := t.TempDir()
	addrFile := filepath.Join(work, "dvsd.addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "2"}, extra...)
	cmd := exec.Command(filepath.Join(bins, "dvsd"), args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start dvsd: %v", err)
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Error("dvsd did not drain within 30s")
		}
	}
	t.Cleanup(stop)

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), stop
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("dvsd never wrote its address file")
	return "", nil
}

func TestServeSweepMatchesDirect(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	addr, stop := startDaemon(t, bins)

	// The exact configuration is shared between the service path and the
	// direct path: dvsctl ships the same JSON the test builds here.
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 400_000
	cfg.Formulas = core.PowerFormula(20, 0.5, 2.25, 0.05)
	cfgPath := filepath.Join(work, "cfg.json")
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, cfgJSON, 0o644); err != nil {
		t.Fatal(err)
	}

	thresholds := []float64{600, 1000}
	windows := []int64{40000}
	artPath := filepath.Join(work, "result.json")
	out, err := runTool(t, filepath.Join(bins, "dvsctl"),
		"-addr", addr, "sweep",
		"-config", cfgPath,
		"-thresholds", "600,1000", "-windows", "40000",
		"-wait", "-out", artPath)
	if err != nil {
		t.Fatalf("dvsctl sweep: %v\n%s", err, out)
	}
	served, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}

	// The same sweep through the direct API must produce the same bytes.
	results, err := core.SweepTDVS(cfg, thresholds, windows, 2)
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	direct, err := json.Marshal(jobs.NewSweepArtifact(results))
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(direct) {
		t.Errorf("served artifact differs from direct sweep\nserved: %d bytes\ndirect: %d bytes", len(served), len(direct))
	}

	// Status and jobs listing resolve the job as done.
	out, err = runTool(t, filepath.Join(bins, "dvsctl"), "-addr", addr, "jobs")
	if err != nil {
		t.Fatalf("dvsctl jobs: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"done"`) {
		t.Errorf("jobs listing has no done job:\n%s", out)
	}

	// Health check round-trips.
	out, err = runTool(t, filepath.Join(bins, "dvsctl"), "-addr", addr, "health")
	if err != nil || !strings.Contains(out, "ok") {
		t.Errorf("health: %v\n%s", err, out)
	}
	stop()
}

// A daemon with a cache serves a repeated sweep without simulating: the
// second submission's job completes with zero new runs and the cache hit
// counters show up in /metrics.
func TestServeCachedSweep(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	cacheDir := filepath.Join(work, "cache")
	manifestPath := filepath.Join(work, "manifest.json")
	addr, stop := startDaemon(t, bins, "-cache", cacheDir, "-manifest", manifestPath)

	// The config comes from dvsctl itself, the way a user starts.
	b, err := exec.Command(filepath.Join(bins, "dvsctl"), "config",
		"-bench", "ipfwdr", "-level", "high", "-seed", "3", "-cycles", "300000").Output()
	if err != nil {
		t.Fatalf("dvsctl config: %v", err)
	}
	cfgPath := filepath.Join(work, "cfg.json")
	if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	fetchMetric := func(name string) float64 {
		out, err := runTool(t, filepath.Join(bins, "dvsctl"), "-addr", addr, "metrics")
		if err != nil {
			t.Fatalf("dvsctl metrics: %v\n%s", err, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if f, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					t.Fatalf("parse metric %s from %q: %v", name, line, err)
				}
				return v
			}
		}
		return 0
	}

	sweep := func(outFile string) []byte {
		t.Helper()
		out, err := runTool(t, filepath.Join(bins, "dvsctl"),
			"-addr", addr, "sweep",
			"-config", cfgPath, "-thresholds", "800", "-windows", "40000",
			"-wait", "-out", outFile)
		if err != nil {
			t.Fatalf("dvsctl sweep: %v\n%s", err, out)
		}
		data, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	first := sweep(filepath.Join(work, "a.json"))
	runsAfterFirst := fetchMetric("experiments_runs_completed")
	if runsAfterFirst == 0 {
		t.Fatal("first sweep performed no simulations")
	}

	// The dedup window has closed (job done), so this submission makes a
	// new job — but every point is a cache hit: zero new simulations.
	second := sweep(filepath.Join(work, "b.json"))
	runsAfterSecond := fetchMetric("experiments_runs_completed")
	if runsAfterSecond != runsAfterFirst {
		t.Errorf("repeated sweep simulated: runs %v -> %v, want unchanged", runsAfterFirst, runsAfterSecond)
	}
	if hits := fetchMetric("cache_hits"); hits == 0 {
		t.Error("cache_hits = 0 after repeated sweep")
	}
	if string(first) != string(second) {
		t.Error("cached sweep artifact differs from the first run")
	}

	// Graceful shutdown writes a manifest whose cache block carries the hit
	// counters.
	stop()
	mb, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("no shutdown manifest: %v", err)
	}
	var m struct {
		Cache *struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache == nil || m.Cache.Hits == 0 {
		t.Errorf("shutdown manifest cache block %+v, want nonzero hits", m.Cache)
	}
}

// jobIDRE finds the job ID dvsctl prints on submission.
var jobIDRE = regexp.MustCompile(`job (j-\d{6}-[0-9a-f]{8})`)

// TestServeRestartResumesThroughCache stops a daemon in the middle of a
// sweep and re-runs the same dvsctl command against a fresh daemon on the
// same cache. The restarted daemon simulates only the points the first one
// did not finish, and the artifact is the bytes of a direct sweep.
func TestServeRestartResumesThroughCache(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	dvsctl := filepath.Join(bins, "dvsctl")
	cacheDir := filepath.Join(work, "cache")

	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 8_000_000
	cfgPath := filepath.Join(work, "cfg.json")
	b, _ := json.Marshal(cfg)
	if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	thresholds := []float64{600, 700, 800, 900, 1000, 1100, 1200, 1300}
	windows := []int64{40000}
	n := len(thresholds) * len(windows)
	sweep := []string{"sweep", "-config", cfgPath,
		"-thresholds", "600,700,800,900,1000,1100,1200,1300", "-windows", "40000", "-par", "1"}

	// First daemon: stop it once the sweep has finished a point.
	addr, stop := startDaemon(t, bins, "-cache", cacheDir, "-drain-timeout", "10ms")
	out, err := runTool(t, dvsctl, append([]string{"-addr", addr}, sweep...)...)
	if err != nil {
		t.Fatalf("dvsctl sweep: %v\n%s", err, out)
	}
	match := jobIDRE.FindStringSubmatch(out)
	if match == nil {
		t.Fatalf("no job ID in sweep output:\n%s", out)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sweep finished no point within 30s")
		}
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + match[1])
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.PointsDone >= 1 {
			break
		}
	}
	stop()
	stored, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	k := len(stored)
	t.Logf("interrupted sweep stored %d of %d points", k, n)
	if k == 0 || k >= n {
		t.Fatalf("interrupted sweep stored %d of %d points, want some but not all", k, n)
	}

	// Second daemon: the same command resubmits the same spec.
	manifestPath := filepath.Join(work, "manifest.json")
	addr, stop = startDaemon(t, bins, "-cache", cacheDir, "-manifest", manifestPath)
	artPath := filepath.Join(work, "result.json")
	out, err = runTool(t, dvsctl, append([]string{"-addr", addr}, append(sweep, "-wait", "-out", artPath)...)...)
	if err != nil {
		t.Fatalf("resubmitted dvsctl sweep: %v\n%s", err, out)
	}
	stop()

	results, err := core.SweepTDVS(cfg, thresholds, windows, 2)
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	direct, err := json.Marshal(jobs.NewSweepArtifact(results))
	if err != nil {
		t.Fatal(err)
	}
	if served := readFile(t, artPath); string(served) != string(direct) {
		t.Errorf("resumed artifact differs from direct sweep: %d vs %d bytes", len(served), len(direct))
	}
	var m manifest
	if err := json.Unmarshal(readFile(t, manifestPath), &m); err != nil {
		t.Fatal(err)
	}
	if want := uint64(n - k); m.Cache.Misses != want {
		t.Errorf("restarted daemon missed %d runs, want %d (%d of %d were cached)", m.Cache.Misses, want, k, n)
	}
}

// TestServeAssertions drives the assertion-observability path end to end:
// a run job with a violating LOC formula is submitted through dvsctl, the
// daemon's GET /v1/jobs/{id}/assertions report is byte-identical to one
// built from a direct in-process run of the same configuration, and the
// per-formula loc_* checker metrics are live on /metrics.
func TestServeAssertions(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	dvsctl := filepath.Join(bins, "dvsctl")
	addr, stop := startDaemon(t, bins)
	defer stop()

	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 300_000
	// Violated on every adjacent forward pair: cycles strictly increase.
	cfg.Formulas = "rev: cycle(forward[i+1]) - cycle(forward[i]) <= 0;"
	cfgPath := filepath.Join(work, "cfg.json")
	b, _ := json.Marshal(cfg)
	if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runTool(t, dvsctl,
		"-addr", addr, "run", "-config", cfgPath,
		"-wait", "-out", filepath.Join(work, "result.json"))
	if err != nil {
		t.Fatalf("dvsctl run: %v\n%s", err, out)
	}
	match := jobIDRE.FindStringSubmatch(out)
	if match == nil {
		t.Fatalf("no job ID in run output:\n%s", out)
	}
	id := match[1]

	repPath := filepath.Join(work, "assertions.json")
	out, err = runTool(t, dvsctl, "-addr", addr, "assertions", "-out", repPath, id)
	if err != nil {
		t.Fatalf("dvsctl assertions: %v\n%s", err, out)
	}
	served, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}

	// The same configuration run in process must yield the same bytes —
	// the service path round-trips results through the stored artifact.
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	direct, err := loc.BuildReport(res.LOC).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(direct) {
		t.Errorf("served assertion report differs from direct run\nserved: %d bytes\ndirect: %d bytes\nserved:\n%s\ndirect:\n%s",
			len(served), len(direct), served, direct)
	}

	var rep loc.Report
	if err := json.Unmarshal(served, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if len(rep.Formulas) != 1 || rep.Formulas[0].Name != "rev" || rep.Formulas[0].Verdict != "fail" {
		t.Fatalf("report formulas = %+v", rep.Formulas)
	}
	fr := rep.Formulas[0]
	if fr.Violations == 0 || len(fr.Witnesses) == 0 || len(fr.Witnesses[0].Witness) != 2 {
		t.Fatalf("report lacks witnesses: %+v", fr)
	}
	if fr.Worst == nil || fr.Density == nil {
		t.Fatalf("report lacks worst/density: %+v", fr)
	}

	// Per-formula checker metrics are exposed by the daemon.
	out, err = runTool(t, dvsctl, "-addr", addr, "metrics")
	if err != nil {
		t.Fatalf("dvsctl metrics: %v\n%s", err, out)
	}
	for _, name := range []string{
		"loc_rev_instances_total", "loc_rev_violations_total",
		"loc_rev_window_peak", "loc_eval_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// An unknown job 404s; a sweep-less fresh ID is covered by server tests.
	if out, err := runTool(t, dvsctl, "-addr", addr, "assertions", "j-999999"); err == nil {
		t.Errorf("assertions for unknown job succeeded:\n%s", out)
	}
}

// TestServeTimeline drives the observability path end to end through the
// CLIs: a sweep submitted with an explicit request ID carries it to the
// job's status, the per-job timeline's stage spans tile the recorded wall
// time exactly, and the stage-latency histograms are live on /metrics.
func TestServeTimeline(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	dvsctl := filepath.Join(bins, "dvsctl")
	addr, stop := startDaemon(t, bins, "-log-format", "json")
	defer stop()

	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 300_000
	cfgPath := filepath.Join(work, "cfg.json")
	b, _ := json.Marshal(cfg)
	if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runTool(t, dvsctl,
		"-addr", addr, "-request-id", "r-e2e-timeline", "sweep",
		"-config", cfgPath, "-thresholds", "700", "-windows", "40000",
		"-wait", "-out", filepath.Join(work, "result.json"))
	if err != nil {
		t.Fatalf("dvsctl sweep: %v\n%s", err, out)
	}
	match := jobIDRE.FindStringSubmatch(out)
	if match == nil {
		t.Fatalf("no job ID in sweep output:\n%s", out)
	}
	id := match[1]

	// The status carries the request's trace ID and stage durations that
	// sum to the wall time exactly (they derive from shared timestamps).
	out, err = runTool(t, dvsctl, "-addr", addr, "status", id)
	if err != nil {
		t.Fatalf("dvsctl status: %v\n%s", err, out)
	}
	var st struct {
		TraceID         string `json:"trace_id"`
		QueueWaitNs     int64  `json:"queue_wait_ns"`
		ExecNs          int64  `json:"exec_ns"`
		ArtifactWriteNs int64  `json:"artifact_write_ns"`
		WallNs          int64  `json:"wall_ns"`
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, out)
	}
	if st.TraceID != "r-e2e-timeline" {
		t.Errorf("job trace ID %q, want r-e2e-timeline", st.TraceID)
	}
	if st.WallNs <= 0 || st.QueueWaitNs+st.ExecNs+st.ArtifactWriteNs != st.WallNs {
		t.Errorf("stage durations %d+%d+%d != wall %d",
			st.QueueWaitNs, st.ExecNs, st.ArtifactWriteNs, st.WallNs)
	}

	// The exported timeline tiles the same stages.
	tlPath := filepath.Join(work, "timeline.json")
	out, err = runTool(t, dvsctl, "-addr", addr, "timeline", "-out", tlPath, id)
	if err != nil {
		t.Fatalf("dvsctl timeline: %v\n%s", err, out)
	}
	tb, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &tl); err != nil {
		t.Fatalf("timeline not JSON: %v", err)
	}
	var sumUs float64
	stages := map[string]bool{}
	for _, ev := range tl.TraceEvents {
		if ev.Ph == "X" {
			stages[ev.Name] = true
			sumUs += ev.Dur
		}
	}
	for _, want := range []string{"queue-wait", "exec", "artifact-write"} {
		if !stages[want] {
			t.Errorf("timeline missing stage %q", want)
		}
	}
	wallUs := float64(st.WallNs) / 1e3
	if diff := sumUs - wallUs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("timeline spans sum to %v us, wall is %v us", sumUs, wallUs)
	}

	// Stage-latency histograms are exposed by the daemon.
	out, err = runTool(t, dvsctl, "-addr", addr, "metrics")
	if err != nil {
		t.Fatalf("dvsctl metrics: %v\n%s", err, out)
	}
	for _, name := range []string{
		"jobs_stage_queue_wait_seconds", "jobs_stage_exec_seconds",
		"jobs_stage_artifact_write_seconds", "http_request_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}
