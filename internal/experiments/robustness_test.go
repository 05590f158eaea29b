package experiments

import (
	"strings"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// TestRobustnessPresetsGreen: every robustness assertion preset must hold
// on a healthy (zero-fault) run — the presets exist to flag faults, not to
// false-positive on the baseline.
func TestRobustnessPresetsGreen(t *testing.T) {
	o := testOpts.withDefaults()
	cfg, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Formulas = RobustnessFormulas()
	cfg.Policy = core.TDVSPolicy(1000, 40000)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"tput_floor", "power_cap", "vf_ladder_low", "vf_ladder_high", "energy_monotone"}
	if len(res.LOC) != len(names) {
		t.Fatalf("%d LOC results, want %d", len(res.LOC), len(names))
	}
	var exercised int
	for _, name := range names {
		ck, err := checkOf(res, name)
		if err != nil {
			t.Fatal(err)
		}
		if !ck.Passed() {
			t.Errorf("%s: %d/%d violations, %d indeterminate on a clean run",
				name, ck.Total, ck.Instances, ck.Indeterminate)
		}
		if ck.Instances > 0 {
			exercised++
		}
	}
	// The presets must actually check something, not pass vacuously.
	if exercised < 3 {
		t.Errorf("only %d of %d presets evaluated any instances", exercised, len(names))
	}
}

// TestFaultSweepReport checks the ablation's shape: a full grid of
// intensity × policy rows, a violation-rate chart, and a clean zero-
// intensity baseline.
func TestFaultSweepReport(t *testing.T) {
	r := runOne(t, "fault_sweep", testOpts)
	if r.ID != "fault_sweep" {
		t.Errorf("ID = %q", r.ID)
	}
	if len(r.Charts) != 1 || !strings.Contains(r.Charts[0].SVG, "<svg") {
		t.Error("missing violation-rate chart")
	}
	var rows, zeroRows int
	for _, line := range strings.Split(r.Body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 9 {
			continue // detail-section line
		}
		rows++
		if strings.HasPrefix(f[0], "0.00") {
			zeroRows++
			if f[6] != "0" {
				t.Errorf("zero-intensity row reports %s violations: %q", f[6], line)
			}
		}
	}
	if want := len(FaultIntensities) * 4; rows != want {
		t.Errorf("%d data rows, want %d", rows, want)
	}
	if zeroRows != 4 {
		t.Errorf("%d zero-intensity rows, want 4", zeroRows)
	}
	// Every policy's detail sections must be present, clean and faulted.
	for _, h := range []string{
		"## intensity 0 / tdvs", "## intensity 1 / edvs",
		"## intensity 0 / pid", "## intensity 1 / psm",
	} {
		if !strings.Contains(r.Body, h) {
			t.Errorf("body lacks %q section", h)
		}
	}
}
