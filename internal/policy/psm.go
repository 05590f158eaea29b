package policy

import "fmt"

// psm is a dynamic power management policy after Conti's power-state
// machine: instead of walking the VF ladder, each ME is driven through
// awake → sleep → deep-sleep states below the ladder. An ME whose window
// idle residency exceeds the sleep threshold is clock-gated (retention
// energy only); after enough consecutive asleep windows it is power-gated
// (free). Queue pressure wakes the whole complex at once, paying the
// depth-scaled wake latency through the chip's transition-penalty model —
// the latency-vs-leakage tradeoff DPM papers turn on.
//
// VF is untouched: psm composes the orthogonal knob to DVS, which is
// exactly why it earns a row in the policy_compare figure.

// psm states, the sleepDepths DPM depths.
const (
	psmAwake = iota
	psmSleep
	psmDeep
)

func init() {
	var psm *Factory
	psm = &Factory{
		Name: "psm",
		Doc:  "power-state machine (Conti): per-ME sleep/deep-sleep below the VF ladder, woken by queue pressure",
		Params: []ParamDoc{
			{Name: "window_cycles", Doc: "state-machine period in reference-clock cycles", Default: 40000},
			{Name: "sleep_idle_frac", Doc: "window idle fraction in (0, 1) above which an awake ME sleeps", Default: 0.20},
			{Name: "wake_queue_frac", Doc: "queue fill fraction in (0, 1] that wakes every ME", Default: 0.25},
			{Name: "deep_windows", Doc: "consecutive asleep windows before deep sleep (0 = never)", Default: 4},
		},
		Validate: func(p Params) error {
			if err := window("psm", p, psm); err != nil {
				return err
			}
			if err := fracOpen("psm", "sleep_idle_frac", psm.Param(p, "sleep_idle_frac")); err != nil {
				return err
			}
			if w := psm.Param(p, "wake_queue_frac"); w <= 0 || w > 1 {
				return fmt.Errorf("policy: psm: wake_queue_frac %v outside (0, 1]", w)
			}
			if d := psm.Param(p, "deep_windows"); d < 0 || d != float64(int(d)) {
				return fmt.Errorf("policy: psm: deep_windows must be a non-negative integer, got %v", d)
			}
			return nil
		},
		New: func(e Env) (Spec, error) {
			sleepIdle := psm.Param(e.Params, "sleep_idle_frac")
			wakeQueue := psm.Param(e.Params, "wake_queue_frac")
			deepWindows := int(psm.Param(e.Params, "deep_windows"))
			asleepFor := make([]int, e.Chip.NumMEs()) // consecutive asleep windows, per ME
			return Spec{Drive: MESleep, Series: "psm_state",
				Decide: func(w *Window, cur, next []int) {
					qfrac := float64(w.QueueUsed) / float64(w.QueueCap)
					wakeAll := qfrac >= wakeQueue
					w.Sample("psm_queue_frac", qfrac)
					for i, state := range cur {
						switch {
						case wakeAll:
							next[i] = psmAwake
						case state == psmAwake:
							if w.Idle[i] > sleepIdle {
								next[i] = psmSleep
							}
						default:
							// Asleep and no queue pressure: stay down,
							// deepening after deep_windows consecutive
							// windows (0 disables deep sleep).
							asleepFor[i]++
							if deepWindows > 0 && asleepFor[i] >= deepWindows {
								next[i] = psmDeep
							}
						}
						if next[i] == psmAwake {
							asleepFor[i] = 0
						}
					}
				}}, nil
		},
	}
	Register(psm)
}
