package policy

import (
	"testing"

	"nepdvs/internal/sim"
	"nepdvs/internal/traffic"
)

// tdvsParams is the paper's 1000 Mbps / 20k-cycle design point.
func tdvsParams(h float64) Params {
	return Params{"top_threshold_mbps": 1000, "window_cycles": 20000, "hysteresis": h}
}

// runWindows offers mbps of traffic in each 20k-cycle window numbered
// from..to, running the kernel to the end of each.
func runWindows(k *sim.Kernel, chip *fakeChip, mbps float64, from, to int) {
	w := winDur(20000)
	for win := from; win <= to; win++ {
		chip.addMbps(mbps, w)
		k.RunUntil(w * sim.Time(win))
	}
}

func TestTDVSScalesDownOnLowTraffic(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	l := buildLoop(t, &k, chip, "tdvs", tdvsParams(0))
	// Sustain 500 Mbps (below every rung) for 6 windows: 4 transitions
	// down, then pinned at the bound.
	runWindows(&k, chip, 500, 1, 6)
	if chip.level(0) != 4 {
		t.Fatalf("level = %d, want 4 (bottom)", chip.level(0))
	}
	if got := l.Stats().Transitions; got != 4 {
		t.Fatalf("transitions = %d, want 4", got)
	}
	if len(chip.allVF) != 4 || chip.allVF[3].MHz != 400 {
		t.Fatalf("VF commands = %v", chip.allVF)
	}
}

func TestTDVSScalesUpOnHighTraffic(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	buildLoop(t, &k, chip, "tdvs", tdvsParams(0))
	// Down twice at 700 Mbps (below 1000 and 916), then 900 Mbps is above
	// the 833 rung and pushes back up.
	runWindows(&k, chip, 700, 1, 2)
	if chip.level(0) != 2 {
		t.Fatalf("after low traffic, level = %d, want 2", chip.level(0))
	}
	runWindows(&k, chip, 900, 3, 3)
	if chip.level(0) != 1 {
		t.Fatalf("after high traffic, level = %d, want 1", chip.level(0))
	}
}

func TestTDVSOscillatesAroundMatchedThreshold(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	l := buildLoop(t, &k, chip, "tdvs", tdvsParams(0))
	// 950 Mbps: below 1000 (down), above 916 (up), below 1000 (down)...
	runWindows(&k, chip, 950, 1, 10)
	if st := l.Stats(); st.Transitions < 8 {
		t.Fatalf("transitions = %d, want thrashing (>= 8)", st.Transitions)
	}
	if chip.level(0) > 1 {
		t.Fatalf("level = %d, should oscillate between 0 and 1", chip.level(0))
	}
}

func TestTDVSHysteresisSuppressesThrash(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	l := buildLoop(t, &k, chip, "tdvs", tdvsParams(0.10))
	runWindows(&k, chip, 950, 1, 10) // within 1000±10%: no action
	if got := l.Stats().Transitions; got != 0 {
		t.Fatalf("transitions with hysteresis = %d, want 0", got)
	}
}

func TestEDVSPerMEIndependence(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(3)
	l := buildLoop(t, &k, chip, "edvs", Params{"window_cycles": 20000, "idle_frac": 0.10})
	w := winDur(20000)
	// ME0 idles 30% per window (memory bound): scales down.
	// ME1 idles 2%: stays up (clamped at top).
	// ME2 idles exactly 10%: no change.
	for win := 1; win <= 5; win++ {
		chip.idle[0] += sim.Time(float64(w) * 0.30)
		chip.idle[1] += sim.Time(float64(w) * 0.02)
		chip.idle[2] += sim.Time(float64(w) * 0.10)
		k.RunUntil(w * sim.Time(win))
	}
	for i, want := range []int{4, 0, 0} {
		if chip.level(i) != want {
			t.Errorf("ME%d level = %d, want %d", i, chip.level(i), want)
		}
	}
	if chip.meSet[1] != 0 || chip.meSet[0] != 4 {
		t.Errorf("per-ME VF commands = %v, want [4 0 0]", chip.meSet)
	}
	// Per-ME time at level: 3 MEs × 5 windows.
	st := l.Stats()
	var sum uint64
	for _, n := range st.TimeAtLevel {
		sum += n
	}
	if st.Windows != 5 || sum != 15 || st.Transitions != 4 {
		t.Errorf("stats = %+v, want 5 windows, 15 ME-windows, 4 transitions", st)
	}
}

func TestEDVSRecovery(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(1)
	buildLoop(t, &k, chip, "edvs", Params{"window_cycles": 20000, "idle_frac": 0.10})
	w := winDur(20000)
	// Two idle windows then two busy windows.
	for win := 1; win <= 2; win++ {
		chip.idle[0] += sim.Time(float64(w) * 0.40)
		k.RunUntil(w * sim.Time(win))
	}
	if chip.level(0) != 2 {
		t.Fatalf("level after idle = %d, want 2", chip.level(0))
	}
	k.RunUntil(4 * w) // no idle added: frac 0 < 10% -> scale up
	if chip.level(0) != 0 {
		t.Fatalf("level after busy = %d, want 0", chip.level(0))
	}
}

func TestCombinedTakesLowerVF(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(2)
	l := buildLoop(t, &k, chip, "combined", Params{"top_threshold_mbps": 1000, "window_cycles": 20000, "idle_frac": 0.10})
	w := winDur(20000)
	// Low traffic (TDVS wants down) and ME1 idle (EDVS wants down more).
	for win := 1; win <= 3; win++ {
		chip.addMbps(400, w)
		chip.idle[1] += sim.Time(float64(w) * 0.5)
		k.RunUntil(w * sim.Time(win))
	}
	// ME0: follows TDVS only (EDVS says up, TDVS says down -> max wins).
	if chip.meVF[0].MHz >= 600 {
		t.Errorf("ME0 VF = %v, want scaled down by TDVS", chip.meVF[0])
	}
	if chip.meVF[1].MHz > chip.meVF[0].MHz {
		t.Errorf("ME1 (%v) should be at or below ME0 (%v)", chip.meVF[1], chip.meVF[0])
	}
	if l.Stats().Transitions == 0 || len(chip.allVF) != 0 {
		t.Errorf("transitions = %d, chip-wide commands = %v; want per-ME steps only", l.Stats().Transitions, chip.allVF)
	}
}

func TestOracleFollowsSchedule(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(6)
	w := winDur(20000)
	// Window volumes: high, high, low, low, high, one packet per window.
	fac, _ := Lookup("oracle")
	e := Env{Kernel: &k, Chip: chip, RefMHz: refMHz, Duration: 5*w - 1, // five windows
		Params: Params{"top_threshold_mbps": 1000, "window_cycles": 20000}}
	for win, mbps := range []float64{1200, 1200, 500, 500, 1200} {
		e.Packets = append(e.Packets, traffic.Packet{Arrival: sim.Time(win) * w, Size: int(mbps * 1e6 * w.Seconds() / 8)})
	}
	l, err := fac.Start(e)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0 boundary: next window (1) is high -> stay at 0.
	k.RunUntil(w)
	if chip.level(0) != 0 {
		t.Fatalf("after w0, level = %d", chip.level(0))
	}
	// Window 1 boundary: window 2 is low (500 < all thresholds) -> bottom.
	k.RunUntil(2 * w)
	if chip.level(0) != 4 {
		t.Fatalf("after w1, level = %d, want 4", chip.level(0))
	}
	// Window 3 boundary: window 4 is high -> straight back to the top in
	// one jump (no ladder walking).
	k.RunUntil(4 * w)
	if chip.level(0) != 0 {
		t.Fatalf("after w3, level = %d, want 0", chip.level(0))
	}
	if st := l.Stats(); st.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2 (one down-jump, one up-jump)", st.Transitions)
	}
	// Past the end of the schedule: the last volume repeats; no panic.
	k.RunUntil(10 * w)
	if chip.level(0) != 0 {
		t.Fatalf("after schedule end, level = %d", chip.level(0))
	}
	if chip.bits != 0 {
		t.Error("oracle test fed the traffic sensor")
	}
}

func TestTimeAtLevelAccounting(t *testing.T) {
	var k sim.Kernel
	chip := newFakeChip(1)
	l := buildLoop(t, &k, chip, "tdvs", tdvsParams(0))
	runWindows(&k, chip, 100, 1, 8)
	st := l.Stats()
	var sum uint64
	for _, v := range st.TimeAtLevel {
		sum += v
	}
	if sum != st.Windows {
		t.Fatalf("TimeAtLevel sums to %d, windows = %d", sum, st.Windows)
	}
	// Counted before each decision: the first window at the top, then one
	// window at each rung of the walk down, then pinned at the bottom.
	want := []uint64{1, 1, 1, 1, 4}
	for i := range want {
		if st.TimeAtLevel[i] != want[i] {
			t.Fatalf("TimeAtLevel = %v, want %v", st.TimeAtLevel, want)
		}
	}
}

// rejects asserts that Validate refuses each parameter set for policy name.
func rejects(t *testing.T, name string, sets ...Params) {
	t.Helper()
	for _, p := range sets {
		if err := Validate(name, p); err == nil {
			t.Errorf("Validate(%q, %v) accepted", name, p)
		}
	}
}

// startRejects asserts that Start, given unscreened parameters, refuses
// to build policy name rather than run a loop that can never act.
func startRejects(t *testing.T, name string, duration sim.Time, sets ...Params) {
	t.Helper()
	fac, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sets {
		var k sim.Kernel
		if _, err := fac.Start(Env{Kernel: &k, Chip: newFakeChip(2), RefMHz: refMHz, Duration: duration, Params: p}); err == nil {
			t.Errorf("%s: Start(%v) accepted", name, p)
		}
	}
}

func TestTDVSErrors(t *testing.T) {
	rejects(t, "tdvs",
		Params{"top_threshold_mbps": 1000, "window_cycles": 0},  // zero window
		Params{"top_threshold_mbps": 0, "window_cycles": 20000}, // empty ladder
		Params{"top_threshold_mbps": 1000, "window_cycles": 20000, "hysteresis": 1.5},
		Params{"top_threshold_mbps": 1000, "window_cycles": 20000, "hysteresis": -0.1})
	startRejects(t, "tdvs", winDur(1_000_000),
		Params{"top_threshold_mbps": 1000, "window_cycles": 0},
		Params{"top_threshold_mbps": 0, "window_cycles": 20000})
}

func TestEDVSErrors(t *testing.T) {
	rejects(t, "edvs",
		Params{"window_cycles": 20000, "idle_frac": 0},
		Params{"window_cycles": 20000, "idle_frac": 1},
		Params{"window_cycles": 0, "idle_frac": 0.1})
	startRejects(t, "edvs", winDur(1_000_000),
		Params{"window_cycles": 0, "idle_frac": 0.1})
}

func TestCombinedErrors(t *testing.T) {
	rejects(t, "combined",
		Params{"top_threshold_mbps": 1000, "window_cycles": -5, "idle_frac": 0.1},
		Params{"top_threshold_mbps": 0, "window_cycles": 20000, "idle_frac": 0.1}, // empty ladder
		Params{"top_threshold_mbps": 1000, "window_cycles": 20000, "idle_frac": 2})
	startRejects(t, "combined", winDur(1_000_000),
		Params{"top_threshold_mbps": 1000, "window_cycles": -5, "idle_frac": 0.1},
		Params{"top_threshold_mbps": 0, "window_cycles": 20000, "idle_frac": 0.1})
}

func TestOracleErrors(t *testing.T) {
	rejects(t, "oracle",
		Params{"top_threshold_mbps": 1000, "window_cycles": 0},
		Params{"top_threshold_mbps": 0, "window_cycles": 100}) // empty ladder
	startRejects(t, "oracle", winDur(1_000_000),
		Params{"top_threshold_mbps": 1000, "window_cycles": 0},
		Params{"top_threshold_mbps": 0, "window_cycles": 100})
	// A zero-length run has no window volumes: an empty schedule.
	startRejects(t, "oracle", 0, Params{"top_threshold_mbps": 1000, "window_cycles": 100})
}
