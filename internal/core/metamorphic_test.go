package core

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"nepdvs/internal/obs"
	"nepdvs/internal/sim"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// TestNeverScalingPoliciesEqualNoDVS is a metamorphic relation: a policy
// whose thresholds it can never cross makes no transition, so its run must
// match the noDVS run in everything the chip does. Packets forwarded and
// dropped, every ME's instruction count, stall share and wake count must
// be equal, and total energy must be equal apart from the traffic
// monitor's share, which noDVS does not pay.
//
// oracle with a 1 Mbps threshold is left out: it makes one transition at
// the run's last instant, where its lookahead window lies past the end of
// the run and holds no traffic (EXPERIMENTS.md, deviation "Oracle
// lookahead").
func TestNeverScalingPoliciesEqualNoDVS(t *testing.T) {
	base, err := DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Cycles = 400_000
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	const never = 0.999999
	cases := []struct {
		name string
		pol  PolicyConfig
	}{
		{"tdvs", TDVSPolicy(1, 40_000)},
		{"edvs", EDVSPolicy(40_000, never)},
		{"combined", CombinedPolicy(1, 40_000, never)},
		{"psm", NewPolicy("psm", map[string]float64{"window_cycles": 40_000, "sleep_idle_frac": never})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			cfg.Policy = c.pol
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.DVSStats == nil || got.DVSStats.Windows == 0 {
				t.Fatalf("policy evaluated no windows: %+v", got.DVSStats)
			}
			if n := got.DVSStats.Transitions; n != 0 {
				t.Errorf("%d transitions, want 0", n)
			}
			g, w := got.Stats, want.Stats
			if g.PktsSent != w.PktsSent || g.PktsDropped != w.PktsDropped {
				t.Errorf("forwarded/dropped %d/%d, noDVS %d/%d", g.PktsSent, g.PktsDropped, w.PktsSent, w.PktsDropped)
			}
			if !slices.Equal(g.MEInstr, w.MEInstr) {
				t.Errorf("per-ME instructions %v, noDVS %v", g.MEInstr, w.MEInstr)
			}
			if !slices.Equal(g.MEStallFrac, w.MEStallFrac) || !slices.Equal(g.MESleepWakes, w.MESleepWakes) {
				t.Errorf("per-ME stall %v and wakes %v, noDVS %v and %v", g.MEStallFrac, g.MESleepWakes, w.MEStallFrac, w.MESleepWakes)
			}
			monitor := got.MonitorFraction * g.EnergyUJ
			if d := g.EnergyUJ - monitor - w.EnergyUJ; math.Abs(d) > 1e-9*w.EnergyUJ {
				t.Errorf("energy %.6f µJ less monitor %.6f µJ is %.6f µJ, noDVS %.6f µJ (off by %g)",
					g.EnergyUJ, monitor, g.EnergyUJ-monitor, w.EnergyUJ, d)
			}
		})
	}
}

// TestZeroTransitionsPenaltyInvariant is a metamorphic relation: the DVS
// transition penalty is charged only on transitions, so a run that makes
// none must not depend on it. noDVS and three policies that never cross
// their thresholds each run at a 0 µs and a 10 µs penalty, and their
// metrics snapshots, chip stats, LOC results and policy stats must be
// equal.
func TestZeroTransitionsPenaltyInvariant(t *testing.T) {
	base, err := DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Cycles = 400_000
	base.Formulas = StandardFormulas()
	const never = 0.999999
	cases := []struct {
		name string
		pol  PolicyConfig
	}{
		{"noDVS", PolicyConfig{}},
		{"tdvs", TDVSPolicy(1, 40_000)},
		{"edvs", EDVSPolicy(40_000, never)},
		{"psm", NewPolicy("psm", map[string]float64{"window_cycles": 40_000, "sleep_idle_frac": never})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// run returns the JSON of everything the run reports except the
			// config echo, which names the penalty.
			run := func(penalty sim.Time) map[string]string {
				cfg := base
				cfg.Policy = c.pol
				cfg.Chip.DVSPenalty = penalty
				cfg.Metrics = obs.NewRegistry()
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out := map[string]string{}
				for name, v := range map[string]any{
					"metrics": cfg.Metrics.Snapshot(), "stats": res.Stats, "loc": res.LOC, "dvs": res.DVSStats,
				} {
					b, err := json.Marshal(v)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out[name] = string(b)
				}
				return out
			}
			free, charged := run(0), run(10*sim.Microsecond)
			for _, name := range []string{"metrics", "stats", "loc", "dvs"} {
				if free[name] != charged[name] {
					t.Errorf("%s differ between a 0 µs and a 10 µs penalty:\n%s\n%s", name, free[name], charged[name])
				}
			}
		})
	}
}
