package experiments

import (
	"fmt"
	"math"
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

// ipfwdrHigh returns one ipfwdr high-traffic config per policy.
func ipfwdrHigh(o Options, policies []core.PolicyConfig) ([]core.RunConfig, error) {
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.RunConfig, len(policies))
	for i, pol := range policies {
		cfgs[i] = base
		cfgs[i].Policy = pol
	}
	return cfgs, nil
}

// hysteresisBands are the ±bands the hysteresis ablation compares.
var hysteresisBands = []float64{0, 0.05, 0.10, 0.20}

// hysteresisConfigs declares the paper's bare TDVS policy against
// hysteresis bands at the thrash-prone 20k window.
func hysteresisConfigs(o Options) ([]core.RunConfig, error) {
	var policies []core.PolicyConfig
	for _, h := range hysteresisBands {
		pol := core.TDVSPolicy(1000, 20000)
		if h != 0 {
			pol.Params["hysteresis"] = h
		}
		policies = append(policies, pol)
	}
	return ipfwdrHigh(o, policies)
}

func hysteresisReport(_ Options, rs []*core.RunResult) (Report, error) {
	var b strings.Builder
	b.WriteString("# hysteresis\ttransitions\tpower_w\tsent_mbps\tloss\n")
	for i, res := range rs {
		fmt.Fprintf(&b, "%.2f\t%d\t%.3f\t%.0f\t%.4f\n",
			hysteresisBands[i], res.DVSStats.Transitions, res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac())
	}
	return Report{
		ID:    "ablation-hysteresis",
		Title: "TDVS threshold hysteresis vs oscillation cost (ipfwdr, 1000 Mbps / 20k)",
		Body:  b.String(),
	}, nil
}

// penalties are the VF transition penalties of the penalty sweep.
var penalties = []sim.Time{0, 2 * sim.Microsecond, 5 * sim.Microsecond, 10 * sim.Microsecond, 20 * sim.Microsecond}

// penaltyConfigs sweeps the VF transition penalty from 0 to 20 µs at the
// 20k window, locating where small windows become viable.
func penaltyConfigs(o Options) ([]core.RunConfig, error) {
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return nil, err
	}
	base.Policy = core.TDVSPolicy(1000, 20000)
	cfgs := make([]core.RunConfig, len(penalties))
	for i, p := range penalties {
		cfgs[i] = base
		cfgs[i].Chip.DVSPenalty = p
	}
	return cfgs, nil
}

func penaltyReport(_ Options, rs []*core.RunResult) (Report, error) {
	var b strings.Builder
	b.WriteString("# penalty_us\ttransitions\tpower_w\tsent_mbps\tloss\n")
	for i, res := range rs {
		fmt.Fprintf(&b, "%.0f\t%d\t%.3f\t%.0f\t%.4f\n",
			penalties[i].Micros(), res.DVSStats.Transitions, res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac())
	}
	return Report{
		ID:    "ablation-penalty",
		Title: "VF transition penalty sweep at the 20k window (ipfwdr, TDVS 1000 Mbps)",
		Body:  b.String(),
	}, nil
}

// headlinePolicies are the policies of the combined ablation and the
// summary table, at their §4.1/§4.2 operating points.
var headlinePolicies = []core.PolicyConfig{
	{},
	core.TDVSPolicy(1400, 40000),
	core.EDVSPolicy(40000, 0.10),
	core.CombinedPolicy(1400, 40000, 0.10),
}

// Replication aggregates one scalar metric across independent traffic
// realizations (seeds).
type Replication struct {
	Values []float64
}

// Mean returns the across-seed mean.
func (r Replication) Mean() float64 {
	if len(r.Values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range r.Values {
		s += v
	}
	return s / float64(len(r.Values))
}

// StdDev returns the across-seed sample standard deviation (n-1), or 0 for
// a single seed.
func (r Replication) StdDev() float64 {
	n := len(r.Values)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return 0
	}
	m := r.Mean()
	var ss float64
	for _, v := range r.Values {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(n-1))
}

// String renders "mean ± sd".
func (r Replication) String() string {
	return fmt.Sprintf("%.3f ± %.3f", r.Mean(), r.StdDev())
}

// summarySeeds are the traffic realizations the summary replicates over.
func summarySeeds(o Options) []int64 { return []int64{o.Seed, o.Seed + 1, o.Seed + 2} }

// summaryConfigs declares the headline comparison with across-seed error
// bars: every benchmark × policy at high traffic under three traffic
// realizations, seed innermost.
func summaryConfigs(o Options) ([]core.RunConfig, error) {
	var cfgs []core.RunConfig
	for _, bench := range workload.All {
		for _, pol := range headlinePolicies {
			cfg, err := o.baseConfig(bench, traffic.LevelHigh)
			if err != nil {
				return nil, err
			}
			cfg.Policy = pol
			for _, seed := range summarySeeds(o) {
				cfg.Traffic.Seed = seed
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// summaryReport renders mean ± sd over the seeds — the statistically honest
// version of Figure 11's high-traffic column.
func summaryReport(o Options, rs []*core.RunResult) (Report, error) {
	n := len(summarySeeds(o))
	var b strings.Builder
	b.WriteString("# bench\tpolicy\tpower_w (mean±sd)\tsent_mbps (mean±sd)\tloss (mean±sd)\n")
	chart := &plot.BarChart{
		Title:  "Mean power at high traffic (error bars: sd over 3 seeds)",
		YLabel: "Power (W)",
	}
	for _, bench := range workload.All {
		chart.Groups = append(chart.Groups, string(bench))
	}
	chart.Series = make([]plot.BarSeries, len(headlinePolicies))
	for pi, pol := range headlinePolicies {
		chart.Series[pi].Name = pol.String()
	}
	for _, bench := range workload.All {
		for pi, pol := range headlinePolicies {
			var power, sent, loss Replication
			for _, res := range rs[:n] {
				power.Values = append(power.Values, res.Stats.AvgPowerW)
				sent.Values = append(sent.Values, res.Stats.SentMbps())
				loss.Values = append(loss.Values, res.Stats.LossFrac())
			}
			rs = rs[n:]
			fmt.Fprintf(&b, "%s\t%s\t%s\t%.0f ± %.0f\t%.4f ± %.4f\n",
				bench, pol, power,
				sent.Mean(), sent.StdDev(),
				loss.Mean(), loss.StdDev())
			chart.Series[pi].Values = append(chart.Series[pi].Values, power.Mean())
			chart.Series[pi].Err = append(chart.Series[pi].Err, power.StdDev())
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

// oraclePolicies pair reactive TDVS with the lookahead oracle at the
// thrash-prone 20k window and the safe 80k window.
var oraclePolicies = []core.PolicyConfig{
	core.TDVSPolicy(1000, 20000), core.OraclePolicy(1000, 20000),
	core.TDVSPolicy(1000, 80000), core.OraclePolicy(1000, 80000),
}

// oracleConfigs compares reactive TDVS against the lookahead oracle (a
// perfect one-window-ahead load predictor), separating TDVS's
// monitoring-lag cost from the unavoidable cost of scaling.
func oracleConfigs(o Options) ([]core.RunConfig, error) {
	return ipfwdrHigh(o, oraclePolicies)
}

func oracleReport(_ Options, rs []*core.RunResult) (Report, error) {
	var b strings.Builder
	b.WriteString("# policy\twindow\ttransitions\tpower_w\tsent_mbps\tloss\n")
	for i, res := range rs {
		pol := oraclePolicies[i]
		fmt.Fprintf(&b, "%s\t%dK\t%d\t%.3f\t%.0f\t%.4f\n",
			pol, int64(pol.Param("window_cycles"))/1000, res.DVSStats.Transitions,
			res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac())
	}
	return Report{
		ID:    "ablation-oracle",
		Title: "Reactive TDVS vs a perfect one-window-ahead oracle (ipfwdr, 1000 Mbps)",
		Body:  b.String(),
	}, nil
}

// combinedConfigs evaluates the TDVS+EDVS policy the paper rules out for
// monitor area cost, against each policy alone.
func combinedConfigs(o Options) ([]core.RunConfig, error) {
	return ipfwdrHigh(o, headlinePolicies)
}

func combinedReport(_ Options, rs []*core.RunResult) (Report, error) {
	var b strings.Builder
	b.WriteString("# policy\tpower_w\tsent_mbps\tloss\ttransitions\n")
	for i, res := range rs {
		trans := uint64(0)
		if res.DVSStats != nil {
			trans = res.DVSStats.Transitions
		}
		fmt.Fprintf(&b, "%s\t%.3f\t%.0f\t%.4f\t%d\n",
			headlinePolicies[i], res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac(), trans)
	}
	return Report{
		ID:    "ablation-combined",
		Title: "Combined TDVS+EDVS policy vs each alone (ipfwdr, high traffic)",
		Body:  b.String(),
	}, nil
}
