package experiments

import (
	"fmt"
	"strings"

	"nepdvs/internal/core"
	"nepdvs/internal/fault"
	"nepdvs/internal/loc"
	"nepdvs/internal/npu"
	"nepdvs/internal/plot"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// The robustness study runs LOC assertions — not distributions — against
// traces from deliberately faulted simulations: the paper's §3 pitch is
// that assertion-based exploration catches design points that fail under
// stress, so this is the stress.

// FaultIntensities are the fault_sweep intensity rungs; 0 is the clean
// baseline every preset must pass at.
var FaultIntensities = []float64{0, 0.25, 0.5, 1.0}

// faultSweepSeed is the base fault-RNG seed of the fault_sweep ablation;
// one plan per intensity, deliberately independent of the traffic seed so
// changing the traffic realization never reshuffles the fault schedule.
const faultSweepSeed = 7700

// RobustnessFormulas returns the robustness assertion presets: named LOC
// checks over the standard trace that must all hold on a healthy run and
// that injected faults push into violation.
//
//	tput_floor      — forwarding rate over every 100-packet window stays
//	                  above a floor (port stalls/drops starve it)
//	power_cap       — average power over every 100-packet window stays
//	                  under the IXP1200 envelope (stuck-high VF breaks it)
//	vf_ladder_low/  — every VF transition lands inside the 400–600 MHz
//	vf_ladder_high    ladder (a corrupted controller would leave it)
//	energy_monotone — cumulative energy never decreases between forwards
//	                  (meter corruption)
func RobustnessFormulas() string {
	return strings.Join([]string{
		"tput_floor: (total_bit(forward[i+100]) - total_bit(forward[i])) / 1000000 / ((time(forward[i+100]) - time(forward[i])) / 1000000) >= 40;",
		"power_cap: (energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) <= 2.5;",
		"vf_ladder_low: mhz(m0_vfchange[i]) >= 400;",
		"vf_ladder_high: mhz(m0_vfchange[i]) <= 600;",
		"energy_monotone: energy(forward[i+1]) - energy(forward[i]) >= 0;",
	}, "\n")
}

// faultSweepPolicies are the policies every fault intensity is run under.
var faultSweepPolicies = []core.PolicyConfig{
	core.TDVSPolicy(1000, 40000),
	core.EDVSPolicy(40000, 0.10),
	core.NewPolicy("pid", nil),
	core.NewPolicy("psm", nil),
}

// faultSweepConfigs declares the robustness ablation: the
// RobustnessFormulas presets over intensities × {TDVS, EDVS, PID, PSM},
// policy innermost, with one deterministic fault plan per intensity shared
// by every policy so they face identical fault schedules.
func faultSweepConfigs(o Options) ([]core.RunConfig, error) {
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return nil, err
	}
	base.Formulas = RobustnessFormulas()
	var cfgs []core.RunConfig
	for i, in := range FaultIntensities {
		var plan *fault.Plan
		if in != 0 {
			p, err := fault.GeneratePlan(fault.Spec{
				Seed:      faultSweepSeed + int64(i),
				Intensity: in,
				Cycles:    o.Cycles,
				Ports:     npu.DefaultConfig().Ports,
			})
			if err != nil {
				return nil, err
			}
			plan = &p
		}
		for _, pol := range faultSweepPolicies {
			cfg := base
			cfg.Policy = pol
			cfg.FaultPlan = plan
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, nil
}

// faultSweepReport carries the per-assertion violation counts and a
// violation-rate surface over intensity.
func faultSweepReport(_ Options, rs []*core.RunResult) (Report, error) {
	policies := faultSweepPolicies
	var b strings.Builder
	b.WriteString("# intensity\tpolicy\tpower_w\tsent_mbps\tloss\tfaults_armed\tviolations\tinstances\tviol_rate\n")
	chart := &plot.LineChart{
		Title:  "LOC assertion violation rate vs fault intensity (ipfwdr)",
		XLabel: "Fault intensity",
		YLabel: "Violation rate",
		YFixed: true, YMin: 0, YMax: 1,
	}
	series := make([]plot.Series, len(policies))
	for pi, pol := range policies {
		series[pi].Name = pol.String()
	}
	var detail strings.Builder
	for ci, res := range rs {
		intensity, pol := FaultIntensities[ci/len(policies)], policies[ci%len(policies)]
		var viol, inst int64
		fmt.Fprintf(&detail, "## intensity %g / %s\n", intensity, pol)
		for _, lr := range res.LOC {
			ck := lr.Check
			if ck == nil {
				continue
			}
			viol += ck.Total + ck.Indeterminate
			inst += ck.Instances
			status := "ok"
			if !ck.Passed() {
				status = "VIOLATED"
			}
			fmt.Fprintf(&detail, "%s\t%s\t%d/%d violations\t%d indeterminate\n",
				lr.Name, status, ck.Total, ck.Instances, ck.Indeterminate)
		}
		armed := 0
		if res.Faults != nil {
			armed = res.Faults.Armed
		}
		rate := 0.0
		if inst > 0 {
			rate = float64(viol) / float64(inst)
		}
		fmt.Fprintf(&b, "%.2f\t%s\t%.3f\t%.0f\t%.4f\t%d\t%d\t%d\t%.4f\n",
			intensity, pol,
			res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac(),
			armed, viol, inst, rate)
		pi := ci % len(policies)
		series[pi].X = append(series[pi].X, intensity)
		series[pi].Y = append(series[pi].Y, rate)
	}
	chart.Series = series
	svg, err := chart.Render()
	if err != nil {
		return Report{}, err
	}
	b.WriteString("\n")
	b.WriteString(detail.String())
	// Attach the unified assertion report: every cell's formula results
	// under "in<intensity>/<policy>/" prefixes, in cell order.
	var all []loc.Result
	for ci, res := range rs {
		for _, lr := range res.LOC {
			lr.Name = fmt.Sprintf("in%g/%s/%s", FaultIntensities[ci/len(policies)], policies[ci%len(policies)], lr.Name)
			all = append(all, lr)
		}
	}
	return Report{
		ID:         "fault_sweep",
		Title:      "Robustness assertions under swept fault intensity (ipfwdr, TDVS/EDVS/PID/PSM)",
		Body:       b.String(),
		Charts:     []NamedChart{{SVG: svg}},
		Assertions: loc.BuildReport(all),
	}, nil
}

// checkOf finds a named check result on a run.
func checkOf(r *core.RunResult, name string) (*loc.CheckResult, error) {
	lr, ok := r.LOCByName(name)
	if !ok || lr.Check == nil {
		return nil, fmt.Errorf("experiments: run lacks %q check", name)
	}
	return lr.Check, nil
}
