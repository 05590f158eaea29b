package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nepdvs/internal/core"
	"nepdvs/internal/loc"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// The policy_compare experiment is the registry's shop window: every
// shipped DVS/DPM policy at its canonical operating point, on the same
// benchmark, traffic realization and assertion set, ranked by what the
// paper actually trades off — energy against packet-loss assertions.
// Adding a policy to the registry and a row here is the whole cost of
// entering the comparison.

// PolicyComparePolicies returns the compared configurations in their
// fixed presentation order: the §4.1/§4.2 operating points for the
// paper's policies, registry defaults for the PR 8 controllers.
func PolicyComparePolicies() []core.PolicyConfig {
	return []core.PolicyConfig{
		core.TDVSPolicy(1400, 40000),
		core.EDVSPolicy(40000, 0.10),
		core.NewPolicy("pid", nil),
		core.NewPolicy("psm", nil),
	}
}

// PolicyCompareFormulas returns the experiment's assertion set: the
// paper's power distribution, the robustness throughput floor, and a
// loss-freedom assertion over the drop event stream — zero instances
// (no drops at all) passes vacuously, any drop violates.
func PolicyCompareFormulas() string {
	return strings.Join([]string{
		core.PowerFormula(100, 0.4, 1.8, 0.01),
		"tput_floor: (total_bit(forward[i+100]) - total_bit(forward[i])) / 1000000 / ((time(forward[i+100]) - time(forward[i])) / 1000000) >= 40;",
		"loss_free: total_pkt(drop[i]) < 1;",
	}, "\n")
}

// PolicyCompareConfigs builds the experiment's run configurations — one
// per compared policy, identical otherwise. Exported so the service-path
// test can push the exact same runs through the run cache and compare
// rendered reports byte for byte.
func PolicyCompareConfigs(o Options) ([]core.RunConfig, error) {
	o = o.withDefaults()
	var cfgs []core.RunConfig
	for _, pol := range PolicyComparePolicies() {
		cfg, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
		if err != nil {
			return nil, err
		}
		cfg.Formulas = PolicyCompareFormulas()
		cfg.Policy = pol
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// policyCompareRow is one ranked line of the report.
type policyCompareRow struct {
	policy string
	res    *core.RunResult
	viol   int64 // loss_free violations (drops observed)
}

// PolicyCompareReport renders the ranking from already-completed results,
// in PolicyComparePolicies order. It is a pure function of the results,
// so a report built from cached or service-served runs is byte-identical
// to one built from local simulation.
func PolicyCompareReport(results []*core.RunResult) (Report, error) {
	pols := PolicyComparePolicies()
	if len(results) != len(pols) {
		return Report{}, fmt.Errorf("experiments: policy_compare: %d results for %d policies", len(results), len(pols))
	}
	rows := make([]policyCompareRow, len(results))
	for i, res := range results {
		lf, err := checkOf(res, "loss_free")
		if err != nil {
			return Report{}, err
		}
		rows[i] = policyCompareRow{policy: pols[i].String(), res: res, viol: lf.Total + lf.Indeterminate}
	}
	// Rank what the paper trades off: first keep the loss assertion (fewer
	// drop violations wins), then spend less energy; the policy name breaks
	// exact ties deterministically.
	ranked := append([]policyCompareRow(nil), rows...)
	sort.SliceStable(ranked, func(a, b int) bool {
		ra, rb := ranked[a], ranked[b]
		if ra.viol != rb.viol {
			return ra.viol < rb.viol
		}
		if ra.res.Stats.EnergyUJ != rb.res.Stats.EnergyUJ {
			return ra.res.Stats.EnergyUJ < rb.res.Stats.EnergyUJ
		}
		return ra.policy < rb.policy
	})

	var b strings.Builder
	b.WriteString("# rank\tpolicy\tenergy_uj\tpower_w\tp80_power_w\tsent_mbps\tloss\tloss_free\ttput_floor\ttransitions\n")
	for rank, r := range ranked {
		p80 := 0.0
		if pw, ok := r.res.LOCByName("power"); ok && pw.Dist != nil {
			p80 = pw.Dist.Hist.QuantileUpper(0.8)
		}
		tf, err := checkOf(r.res, "tput_floor")
		if err != nil {
			return Report{}, err
		}
		status := func(passed bool) string {
			if passed {
				return "ok"
			}
			return "VIOLATED"
		}
		trans := uint64(0)
		if r.res.DVSStats != nil {
			trans = r.res.DVSStats.Transitions
		}
		fmt.Fprintf(&b, "%d\t%s\t%.1f\t%.3f\t%.2f\t%.0f\t%.4f\t%s\t%s\t%d\n",
			rank+1, r.policy, r.res.Stats.EnergyUJ, r.res.Stats.AvgPowerW, p80,
			r.res.Stats.SentMbps(), r.res.Stats.LossFrac(),
			status(r.viol == 0), status(tf.Passed()), trans)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "## %s\n", r.policy)
		for _, lr := range r.res.LOC {
			if lr.Check != nil {
				fmt.Fprintf(&b, "%s\t%d/%d violations\t%d indeterminate\n",
					lr.Name, lr.Check.Total, lr.Check.Instances, lr.Check.Indeterminate)
			}
		}
	}
	// The attached assertion report concatenates every policy's formula
	// results under "<policy>/" name prefixes, in presentation order — a
	// pure function of the results, preserving the byte-identity guarantee.
	var all []loc.Result
	for i, res := range results {
		for _, lr := range res.LOC {
			lr.Name = pols[i].String() + "/" + lr.Name
			all = append(all, lr)
		}
	}
	return Report{
		ID:         "policy_compare",
		Title:      "Registry policies ranked on energy vs packet-loss assertions (ipfwdr, high traffic)",
		Body:       b.String(),
		Assertions: loc.BuildReport(all),
	}, nil
}
