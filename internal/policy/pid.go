package policy

import "fmt"

// pid is a control-theoretic DVS policy after Xia & Tian: the plant output
// is the receive-queue occupancy, the setpoint a target fill fraction, and
// the control output the chip-wide ladder level. Keeping the queue
// part-full means the MEs run just fast enough for the offered load — the
// same goal TDVS approximates from traffic volume, but closed-loop.
//
// The controller runs in fixed-point integer arithmetic: occupancy and
// setpoint in per-mille, gains scaled by pidScale. Floating-point gains
// from the config are quantized once at build time, so identical configs
// produce identical control sequences on any platform.

// pidScale is the fixed-point gain denominator.
const pidScale = 1024

func init() {
	var pid *Factory
	pid = &Factory{
		Name: "pid",
		Doc:  "feedback DVS (Xia & Tian): chip-wide VF from PID control of queue occupancy",
		Params: []ParamDoc{
			{Name: "window_cycles", Doc: "control period in reference-clock cycles", Default: 40000},
			{Name: "kp", Doc: "proportional gain", Default: 3.0},
			{Name: "ki", Doc: "integral gain (anti-windup clamped)", Default: 0.5},
			{Name: "kd", Doc: "derivative gain", Default: 0.5},
			{Name: "setpoint_frac", Doc: "queue-fill setpoint in (0, 1)", Default: 0.10},
		},
		Validate: func(p Params) error {
			if err := window("pid", p, pid); err != nil {
				return err
			}
			var sum float64
			for _, g := range []string{"kp", "ki", "kd"} {
				v := pid.Param(p, g)
				if v < 0 {
					return fmt.Errorf("policy: pid: %s must be non-negative, got %v", g, v)
				}
				sum += v
			}
			if sum == 0 {
				return fmt.Errorf("policy: pid: all gains zero; the controller would never act")
			}
			return fracOpen("pid", "setpoint_frac", pid.Param(p, "setpoint_frac"))
		},
		New: func(e Env) (Spec, error) {
			ladder := MustLadder(1000) // thresholds unused; VF rungs only
			kp := int64(pid.Param(e.Params, "kp") * pidScale)
			ki := int64(pid.Param(e.Params, "ki") * pidScale)
			kd := int64(pid.Param(e.Params, "kd") * pidScale)
			setpoint := int64(pid.Param(e.Params, "setpoint_frac") * 1000) // per-mille
			// maxI is the anti-windup clamp on the integral term.
			var maxI int64
			if ki > 0 {
				// Clamp the integral so its contribution alone cannot
				// exceed the full control range (±1000 per-mille).
				maxI = 1000 * pidScale / ki
			}
			var integral, lastErr int64
			return Spec{Drive: ChipVF, Ladder: ladder, Series: "pid_level",
				Decide: func(w *Window, cur, next []int) {
					occ := int64(w.QueueUsed) * 1000 / int64(w.QueueCap)
					// Positive error: queue above setpoint, the chip is too slow.
					e := occ - setpoint
					integral = max(-maxI, min(integral+e, maxI))
					deriv := e - lastErr
					lastErr = e
					// Control value in per-mille: u ≥ 0 demands full speed
					// (level 0); u = −1000 demands the bottom rung. The
					// mapping is absolute, not incremental, so the
					// controller can jump rungs when the error is large —
					// the feedback analogue of the oracle's direct placement.
					u := (kp*e + ki*integral + kd*deriv) / pidScale
					next[0] = ladder.Clamp(int(-u * int64(ladder.Levels()) / 1000))
					w.Sample("pid_occupancy_pm", float64(occ))
				}}, nil
		},
	}
	Register(pid)
}
