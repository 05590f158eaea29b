package policy

import (
	"math"
	"sort"
	"strings"
	"testing"

	"nepdvs/internal/power"
	"nepdvs/internal/sim"
)

// fakeChip scripts the monitor surface and records every actuation. Every
// ME boots at the top rung, as on the real chip.
type fakeChip struct {
	n     int
	bits  uint64
	idle  []sim.Time
	used  int
	cap   int
	sleep []int
	meVF  []power.VF
	meSet []int      // SetMEVF invocations per ME
	allVF []power.VF // SetAllVF commands, in order
	vfSet int        // SetMEVF + SetAllVF invocations
}

func newFakeChip(n int) *fakeChip {
	f := &fakeChip{n: n, idle: make([]sim.Time, n), sleep: make([]int, n), meVF: make([]power.VF, n), meSet: make([]int, n), cap: 64}
	for i := range f.meVF {
		f.meVF[i] = MustLadder(1000).Steps[0].VF
	}
	return f
}

func (f *fakeChip) NumMEs() int                          { return f.n }
func (f *fakeChip) TrafficBits() uint64                  { return f.bits }
func (f *fakeChip) MEIdle(i int) sim.Time                { return f.idle[i] }
func (f *fakeChip) QueueOccupancy() (used, capacity int) { return f.used, f.cap }
func (f *fakeChip) SetMEVF(i int, v power.VF)            { f.meVF[i] = v; f.meSet[i]++; f.vfSet++ }
func (f *fakeChip) SetMESleep(i, depth int)              { f.sleep[i] = depth }
func (f *fakeChip) SetAllVF(v power.VF) {
	for i := range f.meVF {
		f.meVF[i] = v
	}
	f.allVF = append(f.allVF, v)
	f.vfSet++
}

// level returns ME i's rung on the Figure 5 ladder (0 = 600 MHz).
func (f *fakeChip) level(i int) int { return int((600 - f.meVF[i].MHz) / 50) }

// addMbps adds traffic corresponding to a rate sustained over a window.
func (f *fakeChip) addMbps(mbps float64, window sim.Time) {
	f.bits += uint64(mbps * 1e6 * window.Seconds())
}

const refMHz = 600

func winDur(cycles int64) sim.Time { return sim.NewClock(refMHz).Cycles(cycles) }

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"tdvs", "edvs", "combined", "oracle", "pid", "psm"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry lacks %q: %v", want, names)
		}
	}
}

func TestCanonicalAliases(t *testing.T) {
	cases := map[string]string{
		"":           "",
		"nodvs":      "",
		"noDVS":      "",
		"none":       "",
		"tdvs":       "tdvs",
		"TDVS":       "tdvs",
		"EDVS":       "edvs",
		"TDVS+EDVS":  "combined",
		"tdvs+edvs":  "combined",
		"oracleTDVS": "oracle",
		"oracletdvs": "oracle",
		"pid":        "pid",
		"psm":        "psm",
	}
	for in, want := range cases {
		got, err := Canonical(in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalUnknown(t *testing.T) {
	_, err := Canonical("tdv")
	if err == nil {
		t.Fatal("unknown policy resolved")
	}
	msg := err.Error()
	if !strings.Contains(msg, `did you mean "tdvs"`) {
		t.Errorf("error lacks did-you-mean hint: %v", msg)
	}
	if !strings.Contains(msg, "known policies:") || !strings.Contains(msg, "nodvs") {
		t.Errorf("error lacks known-policy list: %v", msg)
	}
	// Nothing within edit distance 2: no hint, list still present.
	_, err = Canonical("quux-controller")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("distant name produced a hint: %v", err)
	}
}

func TestLookupEmpty(t *testing.T) {
	f, err := Lookup("")
	if f != nil || err != nil {
		t.Errorf("Lookup(\"\") = %v, %v; want nil, nil", f, err)
	}
	f, err = Lookup("nodvs")
	if f != nil || err != nil {
		t.Errorf("Lookup(nodvs) = %v, %v; want nil, nil", f, err)
	}
}

// TestValidateErrors covers every policy's parameter error paths.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string // substring of the error, "" = must pass
	}{
		{"", nil, ""},
		{"", Params{"kp": 1}, "parameters given without a policy"},

		{"tdvs", nil, "missing required"},
		{"tdvs", Params{"top_threshold_mbps": 1000}, `missing required parameter "window_cycles"`},
		{"tdvs", Params{"top_threshold_mbps": -5, "window_cycles": 100}, "must be positive"},
		{"tdvs", Params{"top_threshold_mbps": 1000, "window_cycles": 0.5}, "positive integer"},
		{"tdvs", Params{"top_threshold_mbps": 1000, "window_cycles": 100, "hysteresis": 1}, "hysteresis"},
		{"tdvs", Params{"top_threshold_mbps": 1000, "window_cycles": 100}, ""},

		{"edvs", Params{"window_cycles": 100}, `missing required parameter "idle_frac"`},
		{"edvs", Params{"window_cycles": 100, "idle_frac": 1}, "outside (0, 1)"},
		{"edvs", Params{"window_cycles": -1, "idle_frac": 0.1}, "positive integer"},
		{"edvs", Params{"window_cycles": 100, "idle_frac": 0.1}, ""},

		{"combined", Params{"window_cycles": 100, "idle_frac": 0.1}, "missing required"},
		{"combined", Params{"top_threshold_mbps": 1000, "window_cycles": 100, "idle_frac": 0.1}, ""},

		{"oracle", Params{"top_threshold_mbps": 1000}, "missing required"},
		{"oracle", Params{"top_threshold_mbps": 0, "window_cycles": 100}, "must be positive"},
		{"oracle", Params{"top_threshold_mbps": 1000, "window_cycles": 100}, ""},

		{"pid", nil, ""}, // all defaulted
		{"pid", Params{"kp": -1}, "non-negative"},
		{"pid", Params{"kp": 0, "ki": 0, "kd": 0}, "all gains zero"},
		{"pid", Params{"setpoint_frac": 0}, "outside (0, 1)"},
		{"pid", Params{"window_cycles": 1.5}, "positive integer"},
		{"pid", Params{"ko": 1}, `unknown parameter "ko"`},

		{"psm", nil, ""},
		{"psm", Params{"sleep_idle_frac": 1.2}, "outside (0, 1)"},
		{"psm", Params{"wake_queue_frac": 0}, "outside (0, 1]"},
		{"psm", Params{"deep_windows": 1.5}, "non-negative integer"},
		{"psm", Params{"deep_windows": -1}, "non-negative integer"},

		{"tdvs", Params{"top_threshold_mbps": math.NaN(), "window_cycles": 100}, "must be finite"},
		{"tdvs", Params{"top_threshold_mbps": math.Inf(1), "window_cycles": 100}, "must be finite"},
		{"tdvs", Params{"top_threshold_mbps": 1000, "window_cycles": 100, "hysteresis": math.NaN()}, "must be finite"},
		{"edvs", Params{"window_cycles": 100, "idle_frac": math.NaN()}, "must be finite"},
		{"edvs", Params{"window_cycles": math.Inf(1), "idle_frac": 0.1}, "must be finite"},
		{"pid", Params{"kp": math.Inf(-1)}, "must be finite"},
		{"psm", Params{"deep_windows": math.NaN()}, "must be finite"},

		{"frobnicate", nil, "unknown policy"},
	}
	for _, c := range cases {
		err := Validate(c.name, c.p)
		if c.want == "" {
			if err != nil {
				t.Errorf("Validate(%q, %v): unexpected error %v", c.name, c.p, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%q, %v) = %v, want substring %q", c.name, c.p, err, c.want)
		}
	}
}

func TestValidateUnknownParamHint(t *testing.T) {
	err := Validate("pid", Params{"window_cycle": 100})
	if err == nil || !strings.Contains(err.Error(), `did you mean "window_cycles"`) {
		t.Errorf("unknown parameter lacks did-you-mean: %v", err)
	}
	if !strings.Contains(err.Error(), "accepted:") {
		t.Errorf("unknown parameter lacks accepted list: %v", err)
	}
}

func TestCanonicalize(t *testing.T) {
	// Alias resolves and the optional default is filled in.
	name, p := Canonicalize("TDVS", Params{"top_threshold_mbps": 1000, "window_cycles": 40000})
	if name != "tdvs" {
		t.Errorf("name = %q", name)
	}
	if h, ok := p["hysteresis"]; !ok || h != 0 {
		t.Errorf("hysteresis not defaulted: %v", p)
	}
	// A spelled-out default equals the elided form.
	_, p2 := Canonicalize("tdvs", Params{"top_threshold_mbps": 1000, "window_cycles": 40000, "hysteresis": 0})
	if len(p) != len(p2) || p["hysteresis"] != p2["hysteresis"] {
		t.Errorf("explicit default differs: %v vs %v", p, p2)
	}
	// Fully defaulted policy fills everything.
	_, p3 := Canonicalize("pid", nil)
	for _, want := range []string{"window_cycles", "kp", "ki", "kd", "setpoint_frac"} {
		if _, ok := p3[want]; !ok {
			t.Errorf("pid default %q not filled: %v", want, p3)
		}
	}
	// No-policy collapses to the empty config.
	if name, p := Canonicalize("noDVS", nil); name != "" || p != nil {
		t.Errorf("Canonicalize(noDVS) = %q, %v", name, p)
	}
	// Unresolvable names pass through untouched.
	if name, p := Canonicalize("bogus", Params{"x": 1}); name != "bogus" || p["x"] != 1 {
		t.Errorf("Canonicalize(bogus) = %q, %v", name, p)
	}
}

func TestDescribeAll(t *testing.T) {
	out := DescribeAll()
	for _, want := range []string{"tdvs", "edvs", "combined", "oracle", "pid", "psm",
		"(required)", "(default", "aliases:"} {
		if !strings.Contains(out, want) {
			t.Errorf("DescribeAll lacks %q:\n%s", want, out)
		}
	}
}

// fakeTap scripts the fault view: a traffic scale and a transition gate.
type fakeTap struct {
	allow bool
	scale float64
	asked []int
}

func (f *fakeTap) TrafficBits(raw uint64) uint64 { return uint64(float64(raw) * f.scale) }
func (f *fakeTap) TransitionAllowed(me int) bool {
	f.asked = append(f.asked, me)
	return f.allow
}

func TestInterceptGating(t *testing.T) {
	chip := newFakeChip(2)
	chip.used = 7
	tap := &fakeTap{allow: false, scale: 1}
	var c Chip = Intercept(chip, tap)

	if used, capacity := c.QueueOccupancy(); used != 7 || capacity != 64 {
		t.Errorf("QueueOccupancy = %d/%d, want passthrough 7/64", used, capacity)
	}

	// Blocked: nothing reaches the chip.
	vf := power.VF{MHz: 400, Volts: 1.1}
	c.SetMEVF(0, vf)
	c.SetAllVF(vf)
	c.SetMESleep(1, 2)
	if chip.vfSet != 0 || chip.sleep[1] != 0 {
		t.Errorf("blocked transitions reached the chip: vfSet=%d sleep=%v", chip.vfSet, chip.sleep)
	}
	if len(tap.asked) != 3 || tap.asked[0] != 0 || tap.asked[1] != -1 || tap.asked[2] != 1 {
		t.Errorf("tap consulted with %v, want [0 -1 1]", tap.asked)
	}

	// Allowed: everything passes.
	tap.allow = true
	c.SetMEVF(0, vf)
	c.SetAllVF(vf)
	c.SetMESleep(1, 2)
	if chip.vfSet != 2 || chip.sleep[1] != 2 {
		t.Errorf("allowed transitions dropped: vfSet=%d sleep=%v", chip.vfSet, chip.sleep)
	}
}

func TestInterceptPassThrough(t *testing.T) {
	chip := newFakeChip(6)
	chip.bits = 4000
	chip.idle[3] = 7 * sim.Microsecond
	tap := &fakeTap{allow: true, scale: 1}
	c := Intercept(chip, tap)
	if c.NumMEs() != 6 || c.MEIdle(3) != 7*sim.Microsecond {
		t.Error("NumMEs/MEIdle not passed through")
	}
	if got := c.TrafficBits(); got != 4000 {
		t.Errorf("TrafficBits = %d, want 4000", got)
	}
	vf := power.VF{MHz: 500, Volts: 1.2}
	c.SetMEVF(2, vf)
	if chip.meVF[2] != vf || chip.meSet[2] != 1 {
		t.Error("allowed SetMEVF did not reach the chip")
	}
	c.SetAllVF(vf)
	if len(chip.allVF) != 1 || chip.allVF[0] != vf {
		t.Error("allowed SetAllVF did not reach the chip")
	}
	if len(tap.asked) != 2 || tap.asked[0] != 2 || tap.asked[1] != -1 {
		t.Errorf("tap consulted with %v, want [2 -1]", tap.asked)
	}
}

func TestInterceptDistortsAndBlocks(t *testing.T) {
	chip := newFakeChip(6)
	chip.bits = 4000
	c := Intercept(chip, &fakeTap{allow: false, scale: 0.5})
	if got := c.TrafficBits(); got != 2000 {
		t.Errorf("distorted TrafficBits = %d, want 2000", got)
	}
	c.SetMEVF(1, power.VF{MHz: 400, Volts: 1.1})
	c.SetAllVF(power.VF{MHz: 400, Volts: 1.1})
	if chip.vfSet != 0 || len(chip.allVF) != 0 {
		t.Error("blocked transitions reached the chip")
	}
}

// TestTDVSThroughIntercept proves a real policy runs against the tapped
// chip: offered load just above the 1000 Mbps top threshold reads as
// ~520 Mbps through the halving tap, so tdvs scales down instead of
// holding the top rung, and the wrapped chip still receives the command.
func TestTDVSThroughIntercept(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	buildLoop(t, &k, Intercept(chip, &fakeTap{allow: true, scale: 0.5}), "tdvs",
		Params{"top_threshold_mbps": 1000, "window_cycles": 20000})
	chip.addMbps(1040, winDur(20000))
	k.RunUntil(winDur(20000))
	if len(chip.allVF) != 1 || chip.allVF[0].MHz >= 600 {
		t.Errorf("misled tdvs commanded %v, want one down-scale", chip.allVF)
	}
}

// buildLoop resolves and starts a policy on a fresh kernel/chip.
func buildLoop(t *testing.T, k *sim.Kernel, chip Chip, name string, p Params) *Loop {
	t.Helper()
	fac, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(name, p); err != nil {
		t.Fatal(err)
	}
	l, err := fac.Start(Env{Kernel: k, Chip: chip, RefMHz: refMHz, Duration: winDur(1_000_000), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPIDScalesWithQueueError(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	inst := buildLoop(t, &k, chip, "pid", Params{"window_cycles": 20000})
	w := winDur(20000)

	// Empty queue: the error is negative, the controller scales down.
	chip.used = 0
	for win := 1; win <= 4; win++ {
		k.RunUntil(w * sim.Time(win))
	}
	if chip.meVF[0].MHz >= 600 || chip.vfSet == 0 {
		t.Fatalf("empty queue left the chip at %v MHz after 4 windows", chip.meVF[0].MHz)
	}

	// Full queue: large positive error jumps straight back to full speed.
	chip.used = chip.cap
	k.RunUntil(w * 5)
	if chip.meVF[0].MHz != 600 {
		t.Errorf("full queue left the chip at %v MHz, want 600", chip.meVF[0].MHz)
	}

	st := inst.Stats()
	if st.Windows != 5 {
		t.Errorf("windows = %d, want 5", st.Windows)
	}
	if st.Transitions < 2 {
		t.Errorf("transitions = %d, want at least down+up", st.Transitions)
	}
	var at uint64
	for _, n := range st.TimeAtLevel {
		at += n
	}
	if at != st.Windows {
		t.Errorf("TimeAtLevel sums to %d, want %d", at, st.Windows)
	}
}

func TestPSMSleepDeepenWake(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(4)
	inst := buildLoop(t, &k, chip, "psm", Params{"window_cycles": 20000, "deep_windows": 3})
	w := winDur(20000)

	idleWindow := func(win int) {
		for i := range chip.idle {
			chip.idle[i] += w
		}
		k.RunUntil(w * sim.Time(win))
	}

	// Window 1: fully idle MEs are put to sleep.
	idleWindow(1)
	if chip.sleep[0] != 1 {
		t.Fatalf("idle ME not asleep after window 1: %v", chip.sleep)
	}
	// Three more asleep windows: deepened to power gating.
	for win := 2; win <= 4; win++ {
		idleWindow(win)
	}
	if chip.sleep[0] != 2 {
		t.Errorf("ME not in deep sleep after %d asleep windows: %v", 3, chip.sleep)
	}
	// Queue pressure wakes the whole complex.
	chip.used = chip.cap
	idleWindow(5)
	for i, d := range chip.sleep {
		if d != 0 {
			t.Errorf("ME%d still at depth %d after queue-pressure wake", i, d)
		}
	}
	st := inst.Stats()
	if st.Windows != 5 {
		t.Errorf("windows = %d, want 5", st.Windows)
	}
	// Per ME: awake→sleep, sleep→deep, deep→awake.
	if want := uint64(3 * chip.n); st.Transitions != want {
		t.Errorf("transitions = %d, want %d", st.Transitions, want)
	}
	if len(st.TimeAtLevel) != 3 {
		t.Errorf("TimeAtLevel has %d states, want 3", len(st.TimeAtLevel))
	}
}

func TestPSMNeverTouchesVF(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(2)
	buildLoop(t, &k, chip, "psm", nil)
	w := winDur(40000)
	for win := 1; win <= 6; win++ {
		for i := range chip.idle {
			chip.idle[i] += w
		}
		k.RunUntil(w * sim.Time(win))
	}
	if chip.vfSet != 0 {
		t.Errorf("psm issued %d VF transitions; it must only use the sleep actuator", chip.vfSet)
	}
}

// FuzzPolicyValidate: no parameter set may panic the validator or the
// canonicalizer, every accepted set is finite, and canonicalizing a valid
// set must stay valid.
func FuzzPolicyValidate(f *testing.F) {
	f.Add("tdvs", "top_threshold_mbps", 1000.0, 40000.0)
	f.Add("pid", "kp", -1.0, 0.0)
	f.Add("psm", "deep_windows", 1.5, -3.0)
	f.Add("", "x", 0.0, 0.0)
	f.Add("TDVS+EDVS", "idle_frac", 0.1, 1e300)
	f.Add("tdvs", "hysteresis", math.NaN(), 40000.0)
	f.Add("pid", "kd", 0.5, math.Inf(1))
	f.Fuzz(func(t *testing.T, name, key string, v, w float64) {
		p := Params{key: v, "window_cycles": w}
		err := Validate(name, p)
		cname, cp := Canonicalize(name, p)
		if err == nil {
			for k, v := range cp {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("valid (%q, %v) carries non-finite %s = %v", name, p, k, v)
				}
			}
			if err2 := Validate(cname, cp); err2 != nil {
				t.Fatalf("canonicalized form of valid (%q, %v) invalid: %v", name, p, err2)
			}
		}
		_, _ = Canonical(name)
	})
}
