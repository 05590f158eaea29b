package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// testOpts keeps experiment tests fast: short runs, one traffic seed.
var testOpts = Options{Cycles: 1_000_000, Parallelism: 8, Seed: 1}

func TestFig1Static(t *testing.T) {
	r := Fig1()
	for _, want := range []string{"IXP1200", "IXP2800", "23000", "4.5", "Power(W)"} {
		if !strings.Contains(r.Body, want) {
			t.Errorf("fig1 missing %q:\n%s", want, r.Body)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(r.Body), "\n")
	// 9:47–16:43 in 5-minute bins ≈ 83 bins plus header.
	if len(lines) < 80 {
		t.Fatalf("fig2 has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "# hour") {
		t.Errorf("fig2 header = %q", lines[0])
	}
}

func TestFig5Ladder(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"600", "916", "666", "1.1"} {
		if !strings.Contains(r.Body, want) {
			t.Errorf("fig5 missing %q:\n%s", want, r.Body)
		}
	}
}

// TestSweepFiguresShapes runs the shared §4.1 sweep once (short) and
// checks the qualitative claims of Figures 6–9.
func TestSweepFiguresShapes(t *testing.T) {
	d, err := RunTDVSSweep(workload.IPFwdr, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Results) != len(Thresholds)*len(Windows) {
		t.Fatalf("sweep has %d results", len(d.Results))
	}

	f6, err := Fig6(d)
	if err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(f6.Body, "# series"); c != len(Thresholds)*(len(Windows)+1) {
		t.Errorf("fig6 has %d series, want %d", c, len(Thresholds)*(len(Windows)+1))
	}
	if len(f6.Charts) != len(Thresholds) {
		t.Errorf("fig6 has %d charts, want %d", len(f6.Charts), len(Thresholds))
	}
	for _, ch := range f6.Charts {
		if !strings.HasPrefix(ch.SVG, "<svg") || !strings.Contains(ch.SVG, "noDVS") {
			t.Errorf("fig6 chart %s malformed", ch.Name)
		}
	}
	f7, err := Fig7(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f7.Body, "ccdf") {
		t.Error("fig7 must use the ccdf view")
	}
	if len(f7.Charts) != len(Thresholds) {
		t.Errorf("fig7 has %d charts", len(f7.Charts))
	}

	// Figure 6 claim: every TDVS config saves power vs noDVS — compare the
	// 80th-percentile power values.
	noPow, err := distOf(d.NoDVS, "power")
	if err != nil {
		t.Fatal(err)
	}
	noP80 := noPow.Hist.QuantileUpper(0.8)
	for _, r := range d.Results {
		dist, err := distOf(r.Result, "power")
		if err != nil {
			t.Fatal(err)
		}
		if p80 := dist.Hist.QuantileUpper(0.8); p80 >= noP80 {
			t.Errorf("point %+v p80 power %.3f >= noDVS %.3f", r.Point, p80, noP80)
		}
	}

	// Figure 8/9 surfaces: power and throughput grow with window size.
	f8, err := Fig8(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f8.Body, "min power point") {
		t.Error("fig8 missing min annotation")
	}
	s8, err := d.surface("power", true, "p")
	if err != nil {
		t.Fatal(err)
	}
	// Smaller windows scale more aggressively and save more power. For the
	// thresholds that keep the ladder active at this traffic (800, 1000),
	// the 20k point must sit below the 80k point; thresholds 1200/1400 pin
	// the ladder at the bottom, where window size is mostly noise.
	for _, th := range []float64{800, 1000} {
		small, ok1 := s8.Get(th, float64(Windows[0]))
		large, ok2 := s8.Get(th, float64(Windows[len(Windows)-1]))
		if !ok1 || !ok2 {
			t.Fatalf("missing power surface points for threshold %v", th)
		}
		if small >= large {
			t.Errorf("threshold %v: 20k p80 power %.2f >= 80k %.2f", th, small, large)
		}
	}
	f9, err := Fig9(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9.Body, "max throughput point") {
		t.Error("fig9 missing max annotation")
	}
	s9, err := d.surface("throughput", false, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Throughput at the largest window must beat the smallest window (the
	// paper's 20k collapse). Strict for the thresholds that keep the
	// ladder oscillating at this traffic (>= 1000); threshold 800 pins the
	// chip near the top rung, so window size is allowed to tie there.
	for _, th := range Thresholds {
		small, ok1 := s9.Get(th, float64(Windows[0]))
		large, ok2 := s9.Get(th, float64(Windows[len(Windows)-1]))
		if !ok1 || !ok2 {
			t.Fatalf("missing surface points for threshold %v", th)
		}
		if th >= 1000 && small >= large {
			t.Errorf("threshold %v: 20k p80 throughput %.0f >= 80k %.0f", th, small, large)
		}
		// Threshold 800 pins the chip near the top rung at this traffic,
		// so its window dependence is noise at test-scale run lengths; no
		// assertion there.
		_ = th
	}
}

// runOne runs one single-report experiment alone.
func runOne(t *testing.T, id string, o Options) Report {
	t.Helper()
	rs, err := Run(id, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("%s returned %d reports", id, len(rs))
	}
	return rs[0]
}

func TestFig10Shapes(t *testing.T) {
	r := runOne(t, "fig10", testOpts)
	if c := strings.Count(r.Body, "# series"); c != 2*(len(Windows)+1) {
		t.Errorf("fig10 has %d series, want %d", c, 2*(len(Windows)+1))
	}
	if !strings.Contains(r.Body, "power distributions") || !strings.Contains(r.Body, "throughput distributions") {
		t.Error("fig10 missing sections")
	}
	if len(r.Charts) != 2 {
		t.Errorf("fig10 has %d charts, want 2", len(r.Charts))
	}
}

func TestFig2Chart(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Charts) != 1 || !strings.Contains(r.Charts[0].SVG, "Max") {
		t.Errorf("fig2 chart missing or malformed")
	}
}

func TestFig11Shapes(t *testing.T) {
	o := testOpts.withDefaults()
	cfgs, err := fig11Configs(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4*3*3 {
		t.Fatalf("fig11 has %d cells, want 36", len(cfgs))
	}
	rs, err := runAll(cfgs, o, map[string]*core.RunResult{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := fig11Report(o, rs)
	if err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(r.Body, "## "); c != 36 {
		t.Errorf("fig11 renders %d cells", c)
	}
	// Cells nest benchmark, traffic level, policy (innermost).
	find := func(b workload.Name, lv traffic.Level, p string) *core.RunResult {
		pi := slices.IndexFunc(fig11Policies, func(pol core.PolicyConfig) bool { return pol.String() == p })
		return rs[(slices.Index(workload.All, b)*len(fig11Levels)+slices.Index(fig11Levels, lv))*len(fig11Policies)+pi]
	}
	// §4.3 claims at the paper's operating points:
	// (1) nat shows no power savings from EDVS at any traffic level.
	for _, lv := range []traffic.Level{traffic.LevelLow, traffic.LevelMedium, traffic.LevelHigh} {
		no := find(workload.NAT, lv, "noDVS").Stats.AvgPowerW
		ed := find(workload.NAT, lv, "edvs").Stats.AvgPowerW
		if 1-ed/no > 0.04 {
			t.Errorf("nat/%v: EDVS saving %.1f%%, want ~0", lv, (1-ed/no)*100)
		}
	}
	// (2) TDVS saves more than EDVS at low traffic.
	noLow := find(workload.IPFwdr, traffic.LevelLow, "noDVS").Stats.AvgPowerW
	tdLow := find(workload.IPFwdr, traffic.LevelLow, "tdvs").Stats.AvgPowerW
	edLow := find(workload.IPFwdr, traffic.LevelLow, "edvs").Stats.AvgPowerW
	if !(tdLow < edLow && edLow <= noLow+1e-9) {
		t.Errorf("ipfwdr/low: power ordering TDVS(%.3f) < EDVS(%.3f) <= noDVS(%.3f) violated", tdLow, edLow, noLow)
	}
	// (3) EDVS savings on the memory-intensive benchmark are present at
	// high traffic where TDVS savings shrink.
	noHi := find(workload.IPFwdr, traffic.LevelHigh, "noDVS").Stats.AvgPowerW
	edHi := find(workload.IPFwdr, traffic.LevelHigh, "edvs").Stats.AvgPowerW
	if 1-edHi/noHi < 0.05 {
		t.Errorf("ipfwdr/high: EDVS saving %.1f%%, want >= 5%% even at test scale", (1-edHi/noHi)*100)
	}
	// (4) EDVS never costs material throughput (3% tolerance at the short
	// test run length; at the paper's 8M cycles the gap is zero — see
	// EXPERIMENTS.md).
	for _, b := range workload.All {
		no := find(b, traffic.LevelHigh, "noDVS").Stats.SentMbps()
		ed := find(b, traffic.LevelHigh, "edvs").Stats.SentMbps()
		if ed < no*0.95 {
			t.Errorf("%s/high: EDVS throughput %.0f below noDVS %.0f", b, ed, no)
		}
	}
}

func TestIdleStudy(t *testing.T) {
	r := runOne(t, "idle", testOpts)
	if c := strings.Count(r.Body, "## ME"); c != 6 {
		t.Errorf("idle study covers %d MEs", c)
	}
	if !strings.Contains(r.Body, "transmitting") || !strings.Contains(r.Body, "receiving") {
		t.Error("idle study missing role labels")
	}
}

func TestAblations(t *testing.T) {
	hy := runOne(t, "ablation-hysteresis", testOpts)
	if len(strings.Split(strings.TrimSpace(hy.Body), "\n")) != 5 {
		t.Errorf("hysteresis ablation rows:\n%s", hy.Body)
	}
	pe := runOne(t, "ablation-penalty", testOpts)
	if !strings.Contains(pe.Body, "penalty_us") {
		t.Errorf("penalty ablation:\n%s", pe.Body)
	}
	cb := runOne(t, "ablation-combined", testOpts)
	for _, want := range []string{"noDVS", "tdvs", "edvs", "combined"} {
		if !strings.Contains(cb.Body, want) {
			t.Errorf("combined ablation missing %s:\n%s", want, cb.Body)
		}
	}
	or := runOne(t, "ablation-oracle", testOpts)
	if !strings.Contains(or.Body, "oracle") || strings.Count(or.Body, "\n") != 5 {
		t.Errorf("oracle ablation:\n%s", or.Body)
	}
}

func TestSummary(t *testing.T) {
	o := testOpts
	o.Cycles = 400_000
	r := runOne(t, "summary", o)
	// Header + 4 benchmarks × 4 policies.
	if got := strings.Count(strings.TrimSpace(r.Body), "\n"); got != 16 {
		t.Errorf("summary rows = %d:\n%s", got, r.Body)
	}
	if !strings.Contains(r.Body, "±") {
		t.Error("summary missing error bars")
	}
	// Each row replicates over distinct traffic realizations, so its runs
	// differ: power and throughput cannot both have zero spread.
	for _, line := range strings.Split(strings.TrimSpace(r.Body), "\n")[1:] {
		f := strings.Split(line, "\t")
		if strings.HasSuffix(f[2], "± 0.000") && strings.HasSuffix(f[3], "± 0") {
			t.Errorf("row %q has no across-seed spread", line)
		}
	}
}

func TestReplicationMoments(t *testing.T) {
	r := Replication{Values: []float64{1, 2, 3, 4}}
	if got := r.Mean(); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := r.StdDev(); math.Abs(got-1.2909944487358056) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if !strings.Contains(r.String(), "±") {
		t.Errorf("String = %q", r.String())
	}
	single := Replication{Values: []float64{5}}
	if single.StdDev() != 0 {
		t.Error("single-seed sd should be 0")
	}
	var empty Replication
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.StdDev()) {
		t.Error("empty replication moments should be NaN")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(table) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(table))
	}
	for _, id := range []string{"fig1", "fig6", "fig11", "idle", "ablation-penalty"} {
		found := false
		for _, got := range ids {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q", id)
		}
	}
	if _, err := Run("nope", testOpts); err == nil {
		t.Error("unknown experiment accepted")
	}
	rs, err := Run("fig1", testOpts)
	if err != nil || len(rs) != 1 || rs[0].ID != "fig1" {
		t.Errorf("Run(fig1) = %v, %v", rs, err)
	}
	if !strings.Contains(rs[0].String(), "==== fig1") {
		t.Error("report String() missing banner")
	}
}
