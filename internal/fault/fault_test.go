package fault

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nepdvs/internal/sim"
)

func TestGeneratePlanDeterministic(t *testing.T) {
	sp := Spec{Seed: 42, Intensity: 0.7, Cycles: 1_000_000, Ports: 16}
	a, err := GeneratePlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same spec, different plans:\n%s\n%s", ja, jb)
	}
	if len(a.Faults) == 0 {
		t.Fatal("intensity 0.7 generated no faults")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	// A different seed must reshuffle the schedule.
	c, err := GeneratePlan(Spec{Seed: 43, Intensity: 0.7, Cycles: 1_000_000, Ports: 16})
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Error("different seeds produced identical plans")
	}
	// Onsets are sorted and inside the run.
	last := int64(-1)
	for _, f := range a.Faults {
		if f.OnsetCycle < last {
			t.Errorf("plan not sorted by onset: %d after %d", f.OnsetCycle, last)
		}
		last = f.OnsetCycle
		if f.OnsetCycle < 0 || f.OnsetCycle >= sp.Cycles {
			t.Errorf("onset %d outside run of %d cycles", f.OnsetCycle, sp.Cycles)
		}
		if f.Kind == KindPanic || f.Kind == KindHang {
			t.Errorf("generator produced software fault %s", f.Kind)
		}
	}
}

func TestGeneratePlanZeroIntensity(t *testing.T) {
	p, err := GeneratePlan(Spec{Seed: 1, Intensity: 0, Cycles: 1000, Ports: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 0 {
		t.Fatalf("zero intensity generated %d faults", len(p.Faults))
	}
}

func TestGeneratePlanRejectsBadSpecs(t *testing.T) {
	for _, sp := range []Spec{
		{Seed: 1, Intensity: -0.1, Cycles: 1000, Ports: 4},
		{Seed: 1, Intensity: 1.5, Cycles: 1000, Ports: 4},
		{Seed: 1, Intensity: 0.5, Cycles: 0, Ports: 4},
		{Seed: 1, Intensity: 0.5, Cycles: 1000, Ports: 0},
	} {
		if _, err := GeneratePlan(sp); err == nil {
			t.Errorf("spec %+v accepted", sp)
		}
	}
}

func TestFaultValidation(t *testing.T) {
	bad := []Fault{
		{Kind: "nope", OnsetCycle: 0, DurationCycles: 10},
		{Kind: KindMemSpike, Unit: "cache", OnsetCycle: 0, DurationCycles: 10, Magnitude: 5},
		{Kind: KindMemSpike, Unit: "sram", OnsetCycle: 0, DurationCycles: 10}, // no magnitude
		{Kind: KindBankStall, Unit: "sram", OnsetCycle: 0, DurationCycles: 10},
		{Kind: KindPortStall, Unit: "sensor", OnsetCycle: 0, DurationCycles: 10},
		{Kind: KindPortDrop, Unit: "port-1", OnsetCycle: 0, DurationCycles: 10},
		{Kind: KindSensorMisread, Unit: "sensor", OnsetCycle: 0, DurationCycles: 10, Magnitude: -1},
		{Kind: KindVFStuck, Unit: "sensor", OnsetCycle: 0, DurationCycles: 10},
		{Kind: KindMemSpike, Unit: "sram", OnsetCycle: -1, DurationCycles: 10, Magnitude: 5},
		{Kind: KindMemSpike, Unit: "sram", OnsetCycle: 0, DurationCycles: 0, Magnitude: 5},
	}
	for _, f := range bad {
		p := Plan{Faults: []Fault{f}}
		if err := p.Validate(); err == nil {
			t.Errorf("fault %+v accepted", f)
		}
	}
	good := Plan{Faults: []Fault{
		{Kind: KindPanic, OnsetCycle: 5},
		{Kind: KindHang, OnsetCycle: 5},
		{Kind: KindMemSpike, Unit: "sdram", OnsetCycle: 0, DurationCycles: 1, Magnitude: 10},
		{Kind: KindPortDrop, Unit: PortUnit(3), OnsetCycle: 0, DurationCycles: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestScopeFiltering(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: KindPanic, OnsetCycle: 1},                                                       // everywhere
		{Kind: KindPanic, OnsetCycle: 2, Only: Scope{Seed: 7}},                                 // seed 7 only
		{Kind: KindPanic, OnsetCycle: 3, Only: Scope{WindowCycles: 20000}},                     // one window
		{Kind: KindPanic, OnsetCycle: 4, Only: Scope{ThresholdMbps: 800, WindowCycles: 20000}}, // one point
	}}
	got := p.ForRun(7, 20000, 800)
	if len(got.Faults) != 4 {
		t.Errorf("full match kept %d of 4", len(got.Faults))
	}
	got = p.ForRun(1, 40000, 1000)
	if len(got.Faults) != 1 || got.Faults[0].OnsetCycle != 1 {
		t.Errorf("mismatch kept %+v", got.Faults)
	}
	got = p.ForRun(7, 40000, 800)
	if len(got.Faults) != 2 {
		t.Errorf("seed-only match kept %d, want 2", len(got.Faults))
	}
}

func TestInjectorMemWindows(t *testing.T) {
	clock := sim.NewClock(600)
	p := Plan{Faults: []Fault{
		{Kind: KindMemSpike, Unit: "sram", OnsetCycle: 100, DurationCycles: 100, Magnitude: 10},
		{Kind: KindBankStall, Unit: "sdram", OnsetCycle: 200, DurationCycles: 100},
	}}
	in, err := NewInjector(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Outside any window: no extra latency.
	if got := in.MemExtra("sram", clock.Cycles(50)); got != 0 {
		t.Errorf("pre-window sram extra = %v", got)
	}
	// Inside the spike: +10 ns.
	if got := in.MemExtra("sram", clock.Cycles(150)); got != 10*sim.Nanosecond {
		t.Errorf("in-window sram extra = %v, want 10ns", got)
	}
	// SDRAM is not hit by the sram spike.
	if got := in.MemExtra("sdram", clock.Cycles(150)); got != 0 {
		t.Errorf("sdram extra during sram spike = %v", got)
	}
	// Bank stall holds requests until the window end.
	at := clock.Cycles(250)
	want := clock.Cycles(300) - at
	if got := in.MemExtra("sdram", at); got != want {
		t.Errorf("bank stall extra = %v, want %v", got, want)
	}
	// After everything.
	if got := in.MemExtra("sdram", clock.Cycles(400)); got != 0 {
		t.Errorf("post-window extra = %v", got)
	}
	st := in.Stats()
	if st.MemDelayed != 2 || st.MemExtraPs == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInjectorPortWindows(t *testing.T) {
	clock := sim.NewClock(600)
	p := Plan{Faults: []Fault{
		{Kind: KindPortStall, Unit: PortUnit(2), OnsetCycle: 100, DurationCycles: 100},
		{Kind: KindPortDrop, Unit: PortUnit(2), OnsetCycle: 150, DurationCycles: 20},
		{Kind: KindPortStall, Unit: PortUnit(5), OnsetCycle: 100, DurationCycles: 100},
	}}
	in, err := NewInjector(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Port 0 untouched.
	if resume, drop := in.PortFault(0, clock.Cycles(150)); resume != 0 || drop {
		t.Errorf("port 0 = (%v, %v)", resume, drop)
	}
	// Port 2 inside the stall window only: deferred to the window end.
	if resume, drop := in.PortFault(2, clock.Cycles(120)); drop || resume != clock.Cycles(200) {
		t.Errorf("port 2 stall = (%v, %v), want resume %v", resume, drop, clock.Cycles(200))
	}
	// Drop wins where the drop window overlaps.
	if _, drop := in.PortFault(2, clock.Cycles(160)); !drop {
		t.Error("port 2 at 160 should drop")
	}
	st := in.Stats()
	if st.PortStalled != 1 || st.PortDropped != 1 {
		t.Errorf("port stats = %+v", st)
	}
}

func TestSensorTapDistortsDeltas(t *testing.T) {
	clock := sim.NewClock(600)
	p := Plan{Faults: []Fault{
		{Kind: KindSensorMisread, Unit: "sensor", OnsetCycle: 100, DurationCycles: 100, Magnitude: 0.5},
		{Kind: KindVFStuck, Unit: "vf", OnsetCycle: 300, DurationCycles: 100},
	}}
	in, err := NewInjector(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	tap := in.Tap(k)
	// Before the window: readings pass through.
	if got := tap.TrafficBits(1000); got != 1000 {
		t.Errorf("clean reading = %d", got)
	}
	// Enter the misread window: the delta is halved, not the cumulative.
	k.Schedule(clock.Cycles(150), func() {
		if got := tap.TrafficBits(3000); got != 2000 { // 1000 + 2000/2
			t.Errorf("misread = %d, want 2000", got)
		}
		if !tap.TransitionAllowed(0) {
			t.Error("transition blocked outside vf_stuck window")
		}
	})
	// After the window: deltas pass through again (cumulative stays offset).
	k.Schedule(clock.Cycles(250), func() {
		if got := tap.TrafficBits(4000); got != 3000 { // 2000 + 1000
			t.Errorf("post-window reading = %d, want 3000", got)
		}
	})
	k.Schedule(clock.Cycles(350), func() {
		if tap.TransitionAllowed(-1) {
			t.Error("transition allowed inside vf_stuck window")
		}
	})
	k.Run()
	st := in.Stats()
	if st.SensorMisreads != 1 || st.VFBlocked != 1 {
		t.Errorf("tap stats = %+v", st)
	}
}

func TestArmEmitsFaultEvents(t *testing.T) {
	clock := sim.NewClock(600)
	p := Plan{Faults: []Fault{
		{Kind: KindMemSpike, Unit: "sram", OnsetCycle: 100, DurationCycles: 50, Magnitude: 10},
	}}
	in, err := NewInjector(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	type ev struct {
		name  string
		extra map[string]float64
	}
	var got []ev
	in.Arm(k, func(name string, extra map[string]float64) {
		got = append(got, ev{name, extra})
	})
	k.Run()
	if len(got) != 2 || got[0].name != "fault" || got[1].name != "fault_clear" {
		t.Fatalf("events = %+v", got)
	}
	want := map[string]float64{"kind": KindMemSpike.Code(), "unit": 1, "magnitude": 10}
	if !reflect.DeepEqual(got[0].extra, want) {
		t.Errorf("fault annotations = %v, want %v", got[0].extra, want)
	}
	if in.Stats().Armed != 1 {
		t.Errorf("armed = %d", in.Stats().Armed)
	}
}

func TestArmPanicFault(t *testing.T) {
	clock := sim.NewClock(600)
	p := Plan{Faults: []Fault{{Kind: KindPanic, OnsetCycle: 10}}}
	in, err := NewInjector(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	in.Arm(k, nil)
	defer func() {
		r := recover()
		ip, ok := r.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want InjectedPanic", r, r)
		}
		if ip.Fault.OnsetCycle != 10 {
			t.Errorf("panic fault = %+v", ip.Fault)
		}
	}()
	k.Run()
	t.Fatal("injected panic did not fire")
}

func TestPlanFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	p, err := GeneratePlan(Spec{Seed: 9, Intensity: 0.5, Cycles: 100000, Ports: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&p, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", p, *got)
	}
	// A malformed plan file is rejected with a useful error.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"Faults":[{"Kind":"mem_spike","Unit":"sram"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlanFile(badPath); err == nil {
		t.Error("malformed plan accepted")
	}
}

func TestUnitCodes(t *testing.T) {
	cases := map[string]float64{
		"": 0, "sram": 1, "sdram": 2, "sensor": 3, "vf": 4,
		"port0": 100, "port7": 107, "bogus": -1,
	}
	for unit, want := range cases {
		if got := UnitCode(unit); got != want {
			t.Errorf("UnitCode(%q) = %v, want %v", unit, got, want)
		}
	}
	if !KindHang.Valid() || Kind("x").Valid() {
		t.Error("kind validity broken")
	}
}
