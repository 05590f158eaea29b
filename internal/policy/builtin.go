package policy

import (
	"fmt"

	"nepdvs/internal/sim"
)

// The paper's two policies and the two ablations register here under
// their CLI names, with the legacy core.PolicyKind strings as aliases so
// stored configs and manifests keep resolving. Windows are given in
// reference-clock cycles, as in the paper ("window size of 20k clock
// cycles" at 600 MHz).

func positive(name, param string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("policy: %s: %s must be positive, got %v", name, param, v)
	}
	return nil
}

func window(name string, p Params, f *Factory) error {
	if w := f.Param(p, "window_cycles"); w <= 0 || w != float64(int64(w)) {
		return fmt.Errorf("policy: %s: window_cycles must be a positive integer, got %v", name, w)
	}
	return nil
}

func fracOpen(name, param string, v float64) error {
	if v <= 0 || v >= 1 {
		return fmt.Errorf("policy: %s: %s %v outside (0, 1)", name, param, v)
	}
	return nil
}

// tdvsStep is the traffic law: the window volume mbps is compared against
// the threshold of the rung in force; below the band [th·(1−h), th·(1+h)]
// the chip steps down a rung, above it up a rung. h = 0 is the paper's
// policy; a positive hysteresis is an ablation that suppresses thrash.
func tdvsStep(l Ladder, level int, mbps, h float64) int {
	th := l.Steps[level].ThresholdMbps
	switch {
	case mbps < th*(1-h):
		return l.Clamp(level + 1) // scale down
	case mbps > th*(1+h):
		return l.Clamp(level - 1) // scale up
	}
	return level
}

// edvsStep is the execution law: an ME whose window idle fraction exceeds
// the threshold steps down a rung, one below it steps up a rung.
func edvsStep(l Ladder, level int, idle, threshold float64) int {
	switch {
	case idle > threshold:
		return l.Clamp(level + 1) // idle engine: scale down
	case idle < threshold:
		return l.Clamp(level - 1) // busy engine: scale up
	}
	return level
}

func init() {
	windowDoc := ParamDoc{Name: "window_cycles", Doc: "monitor window in reference-clock cycles", Required: true}
	thresholdDoc := ParamDoc{Name: "top_threshold_mbps", Doc: "top-rung traffic threshold in Mbps (ladder derived per Figure 5)", Required: true}
	idleDoc := ParamDoc{Name: "idle_frac", Doc: "per-ME idle-fraction threshold in (0, 1)", Required: true}

	var tdvs, edvs, combined, oracle *Factory

	tdvs = &Factory{
		Name:    "tdvs",
		Aliases: []string{"TDVS"},
		Doc:     "traffic-based DVS: chip-wide VF stepped against the window's offered load",
		Params: []ParamDoc{
			thresholdDoc, windowDoc,
			{Name: "hysteresis", Doc: "decision-band halfwidth in [0, 1) (0 = paper)", Default: 0},
		},
		Monitor: true,
		Validate: func(p Params) error {
			if err := positive("tdvs", "top_threshold_mbps", tdvs.Param(p, "top_threshold_mbps")); err != nil {
				return err
			}
			if err := window("tdvs", p, tdvs); err != nil {
				return err
			}
			if h := tdvs.Param(p, "hysteresis"); h < 0 || h >= 1 {
				return fmt.Errorf("policy: tdvs: hysteresis %v outside [0, 1)", h)
			}
			return nil
		},
		New: func(e Env) (Spec, error) {
			ladder, err := NewLadder(tdvs.Param(e.Params, "top_threshold_mbps"))
			h := tdvs.Param(e.Params, "hysteresis")
			return Spec{Drive: ChipVF, Ladder: ladder, Traffic: true, Series: "tdvs_level",
				Decide: func(w *Window, cur, next []int) {
					next[0] = tdvsStep(ladder, cur[0], w.Mbps, h)
					w.Sample("dvs_window_mbps", w.Mbps)
				}}, err
		},
	}
	Register(tdvs)

	edvs = &Factory{
		Name:    "edvs",
		Aliases: []string{"EDVS"},
		Doc:     "execution-based DVS: each ME stepped against its own idle residency",
		Params:  []ParamDoc{windowDoc, idleDoc},
		Validate: func(p Params) error {
			if err := window("edvs", p, edvs); err != nil {
				return err
			}
			return fracOpen("edvs", "idle_frac", edvs.Param(p, "idle_frac"))
		},
		New: func(e Env) (Spec, error) {
			// EDVS walks the ladder's VF rungs; its thresholds are unused,
			// so the top threshold value is immaterial.
			ladder := MustLadder(1000)
			th := edvs.Param(e.Params, "idle_frac")
			return Spec{Drive: MEVF, Ladder: ladder, Series: "edvs_level",
				Decide: func(w *Window, cur, next []int) {
					for i := range next {
						next[i] = edvsStep(ladder, cur[i], w.Idle[i], th)
					}
				}}, nil
		},
	}
	Register(edvs)

	// combined runs both laws and applies, per ME, the lower of the two
	// operating points (the more aggressive saving). The paper rules this
	// out on area/power-overhead grounds; it is kept as an ablation to
	// quantify what that decision leaves on the table. Each law keeps its
	// own levels; only the per-ME maximum is applied.
	combined = &Factory{
		Name:    "combined",
		Aliases: []string{"TDVS+EDVS", "tdvs+edvs"},
		Doc:     "combined ablation: per ME, the lower of the TDVS and EDVS operating points",
		Params:  []ParamDoc{thresholdDoc, windowDoc, idleDoc},
		Monitor: true,
		Validate: func(p Params) error {
			if err := positive("combined", "top_threshold_mbps", combined.Param(p, "top_threshold_mbps")); err != nil {
				return err
			}
			if err := window("combined", p, combined); err != nil {
				return err
			}
			return fracOpen("combined", "idle_frac", combined.Param(p, "idle_frac"))
		},
		New: func(e Env) (Spec, error) {
			ladder, err := NewLadder(combined.Param(e.Params, "top_threshold_mbps"))
			th := combined.Param(e.Params, "idle_frac")
			tdvsLevel, edvsLevels := 0, make([]int, e.Chip.NumMEs())
			return Spec{Drive: MEVF, Ladder: ladder, Traffic: true, Series: "dvs_level",
				Decide: func(w *Window, cur, next []int) {
					tdvsLevel = tdvsStep(ladder, tdvsLevel, w.Mbps, 0)
					w.Sample("dvs_window_mbps", w.Mbps)
					w.Sample("tdvs_level", float64(tdvsLevel))
					for i := range next {
						edvsLevels[i] = edvsStep(ladder, edvsLevels[i], w.Idle[i], th)
						next[i] = max(tdvsLevel, edvsLevels[i])
					}
				}}, err
		},
	}
	Register(combined)

	// oracle is a traffic law with a perfect one-window-ahead predictor:
	// at each window boundary it jumps the chip directly to the rung
	// matched to the next window's actual offered load (precomputed from
	// the packet schedule), paying the normal transition penalty but never
	// mispredicting and never walking the ladder. The gap to tdvs
	// separates monitoring lag from the unavoidable cost of scaling. Like
	// tdvs it boots at the top rung; it never reads the traffic sensor.
	oracle = &Factory{
		Name:    "oracle",
		Aliases: []string{"oracleTDVS", "oracletdvs"},
		Doc:     "lookahead ablation: perfect one-window-ahead traffic prediction",
		Params:  []ParamDoc{thresholdDoc, windowDoc},
		Monitor: true,
		Validate: func(p Params) error {
			if err := positive("oracle", "top_threshold_mbps", oracle.Param(p, "top_threshold_mbps")); err != nil {
				return err
			}
			return window("oracle", p, oracle)
		},
		New: func(e Env) (Spec, error) {
			ladder, err := NewLadder(oracle.Param(e.Params, "top_threshold_mbps"))
			if err != nil {
				return Spec{}, err
			}
			arrivals := make([]sim.Time, len(e.Packets))
			bits := make([]uint64, len(e.Packets))
			for i, p := range e.Packets {
				arrivals[i] = p.Arrival
				bits[i] = p.Bits()
			}
			vols, err := WindowVolumes(arrivals, bits, windowOf(oracle, e), e.Duration)
			tick := 0
			return Spec{Drive: ChipVF, Ladder: ladder, Series: "oracle_level",
				Decide: func(w *Window, cur, next []int) {
					// Windows beyond the schedule reuse its last entry.
					tick = min(tick+1, len(vols)-1)
					next[0] = OracleLevel(ladder, vols[tick])
					w.Sample("dvs_window_mbps", vols[tick])
				}}, err
		},
	}
	Register(oracle)
}
