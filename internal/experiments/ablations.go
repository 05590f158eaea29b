package experiments

import (
	"fmt"
	"strings"

	"nepdvs/internal/core"
	"nepdvs/internal/plot"
	"nepdvs/internal/sim"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// The ablations quantify design choices the paper calls out but does not
// evaluate: the cost of threshold oscillation (hysteresis), the sensitivity
// to the 10 µs transition penalty, and the combined policy ruled out on
// area grounds.

// AblationHysteresis compares the paper's bare TDVS policy against a
// ±10% hysteresis band at the thrash-prone 20k window.
func AblationHysteresis(o Options) (Report, error) {
	o = o.withDefaults()
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("# hysteresis\ttransitions\tpower_w\tsent_mbps\tloss\n")
	for _, h := range []float64{0, 0.05, 0.10, 0.20} {
		cfg := base
		pol := core.TDVSPolicy(1000, 20000)
		if h != 0 {
			pol.Params["hysteresis"] = h
		}
		cfg.Policy = pol
		res, err := core.Run(cfg)
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "%.2f\t%d\t%.3f\t%.0f\t%.4f\n",
			h, res.DVSStats.Transitions, res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac())
	}
	return Report{
		ID:    "ablation-hysteresis",
		Title: "TDVS threshold hysteresis vs oscillation cost (ipfwdr, 1000 Mbps / 20k)",
		Body:  b.String(),
	}, nil
}

// AblationPenalty sweeps the VF transition penalty from 0 to 20 µs at the
// 20k window, locating where small windows become viable.
func AblationPenalty(o Options) (Report, error) {
	o = o.withDefaults()
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return Report{}, err
	}
	penalties := []sim.Time{0, 2 * sim.Microsecond, 5 * sim.Microsecond, 10 * sim.Microsecond, 20 * sim.Microsecond}
	type row struct {
		res *core.RunResult
		err error
	}
	rows := make([]row, len(penalties))
	core.ForEach(len(penalties), o.Parallelism, func(i int) {
		cfg := base
		cfg.Chip.DVSPenalty = penalties[i]
		cfg.Policy = core.TDVSPolicy(1000, 20000)
		rows[i].res, rows[i].err = core.Run(cfg)
	})
	var b strings.Builder
	b.WriteString("# penalty_us\ttransitions\tpower_w\tsent_mbps\tloss\n")
	for i, p := range penalties {
		if rows[i].err != nil {
			return Report{}, rows[i].err
		}
		res := rows[i].res
		fmt.Fprintf(&b, "%.0f\t%d\t%.3f\t%.0f\t%.4f\n",
			p.Micros(), res.DVSStats.Transitions, res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac())
	}
	return Report{
		ID:    "ablation-penalty",
		Title: "VF transition penalty sweep at the 20k window (ipfwdr, TDVS 1000 Mbps)",
		Body:  b.String(),
	}, nil
}

// Summary produces the headline comparison table with across-seed error
// bars: every benchmark × policy at high traffic, mean ± sd over three
// traffic realizations — the statistically honest version of Figure 11's
// high-traffic column.
func Summary(o Options) (Report, error) {
	o = o.withDefaults()
	seeds := []int64{o.Seed, o.Seed + 1, o.Seed + 2}
	policies := []core.PolicyConfig{
		{},
		core.TDVSPolicy(1400, 40000),
		core.EDVSPolicy(40000, 0.10),
		core.CombinedPolicy(1400, 40000, 0.10),
	}
	var b strings.Builder
	b.WriteString("# bench\tpolicy\tpower_w (mean±sd)\tsent_mbps (mean±sd)\tloss (mean±sd)\n")
	chart := &plot.BarChart{
		Title:  "Mean power at high traffic (error bars: sd over 3 seeds)",
		YLabel: "Power (W)",
	}
	for _, bench := range workload.All {
		chart.Groups = append(chart.Groups, string(bench))
	}
	chart.Series = make([]plot.BarSeries, len(policies))
	for pi, pol := range policies {
		chart.Series[pi].Name = pol.String()
	}
	for _, bench := range workload.All {
		for pi, pol := range policies {
			cfg, err := o.baseConfig(bench, traffic.LevelHigh)
			if err != nil {
				return Report{}, err
			}
			cfg.Policy = pol
			rep, err := core.Replicate(cfg, seeds, o.Parallelism)
			if err != nil {
				return Report{}, err
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%.0f ± %.0f\t%.4f ± %.4f\n",
				bench, pol, rep.PowerW,
				rep.SentMbps.Mean(), rep.SentMbps.StdDev(),
				rep.LossFrac.Mean(), rep.LossFrac.StdDev())
			chart.Series[pi].Values = append(chart.Series[pi].Values, rep.PowerW.Mean())
			chart.Series[pi].Err = append(chart.Series[pi].Err, rep.PowerW.StdDev())
		}
	}
	svg, err := chart.Render()
	if err != nil {
		return Report{}, err
	}
	return Report{
		ID:     "summary",
		Title:  "Policy comparison at high traffic, mean ± sd over 3 traffic seeds",
		Body:   b.String(),
		Charts: []NamedChart{{SVG: svg}},
	}, nil
}

// AblationOracle compares reactive TDVS against the lookahead oracle (a
// perfect one-window-ahead load predictor) at the thrash-prone 20k window
// and the safe 80k window, separating TDVS's monitoring-lag cost from the
// unavoidable cost of scaling.
func AblationOracle(o Options) (Report, error) {
	o = o.withDefaults()
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("# policy\twindow\ttransitions\tpower_w\tsent_mbps\tloss\n")
	for _, w := range []int64{20000, 80000} {
		for _, pol := range []core.PolicyConfig{
			core.TDVSPolicy(1000, w),
			core.OraclePolicy(1000, w),
		} {
			cfg := base
			cfg.Policy = pol
			res, err := core.Run(cfg)
			if err != nil {
				return Report{}, err
			}
			fmt.Fprintf(&b, "%s\t%dK\t%d\t%.3f\t%.0f\t%.4f\n",
				pol, w/1000, res.DVSStats.Transitions,
				res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac())
		}
	}
	return Report{
		ID:    "ablation-oracle",
		Title: "Reactive TDVS vs a perfect one-window-ahead oracle (ipfwdr, 1000 Mbps)",
		Body:  b.String(),
	}, nil
}

// AblationCombined evaluates the TDVS+EDVS policy the paper rules out for
// monitor area cost, against each policy alone.
func AblationCombined(o Options) (Report, error) {
	o = o.withDefaults()
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return Report{}, err
	}
	policies := []core.PolicyConfig{
		{},
		core.TDVSPolicy(1400, 40000),
		core.EDVSPolicy(40000, 0.10),
		core.CombinedPolicy(1400, 40000, 0.10),
	}
	var b strings.Builder
	b.WriteString("# policy\tpower_w\tsent_mbps\tloss\ttransitions\n")
	for _, pol := range policies {
		cfg := base
		cfg.Policy = pol
		res, err := core.Run(cfg)
		if err != nil {
			return Report{}, err
		}
		trans := uint64(0)
		if res.DVSStats != nil {
			trans = res.DVSStats.Transitions
		}
		fmt.Fprintf(&b, "%s\t%.3f\t%.0f\t%.4f\t%d\n",
			pol, res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac(), trans)
	}
	return Report{
		ID:    "ablation-combined",
		Title: "Combined TDVS+EDVS policy vs each alone (ipfwdr, high traffic)",
		Body:  b.String(),
	}, nil
}
