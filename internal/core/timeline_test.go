package core

import (
	"bytes"
	"fmt"
	"testing"

	"nepdvs/internal/fault"
	"nepdvs/internal/span"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// timelineRun executes cfg with a fresh recorder and returns the recorded
// events plus their Chrome JSON rendering.
func timelineRun(t *testing.T, cfg RunConfig) ([]span.Event, []byte) {
	t.Helper()
	rec := span.NewRecorder()
	cfg.Spans = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := span.MarshalChrome(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events(), b
}

// TestTimelineDeterministic is the tentpole's determinism contract: two
// runs of the same config must produce byte-identical span streams and
// byte-identical Perfetto JSON.
func TestTimelineDeterministic(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Cycles = 500_000
	cfg.Policy = TDVSPolicy(1000, 20_000)

	ev1, b1 := timelineRun(t, cfg)
	ev2, b2 := timelineRun(t, cfg)
	if len(ev1) == 0 {
		t.Fatal("no span events recorded")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		a, b := ev1[i], ev2[i]
		if a.Kind != b.Kind || a.Track != b.Track || a.Name != b.Name ||
			a.Start != b.Start || a.End != b.End || a.Value != b.Value {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("Chrome JSON differs between identical runs")
	}
}

// TestTimelineCoversChip asserts that an instrumented run records the
// residency spans the timeline view is built on: exec spans for every ME,
// idle spans, memory transactions, and the DVS controller's window
// counters and transition instants.
func TestTimelineCoversChip(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Policy = TDVSPolicy(800, 20_000)

	events, _ := timelineRun(t, cfg)
	execByME := map[string]int{}
	var idle, mem, windows, transitions int
	for _, ev := range events {
		switch {
		case ev.Kind == span.KindSpan && ev.Name == "exec":
			execByME[ev.Track]++
		case ev.Kind == span.KindSpan && ev.Name == "idle":
			idle++
		case ev.Kind == span.KindSpan && ev.Cat == "mem":
			mem++
		case ev.Kind == span.KindCounter && ev.Name == "tdvs_level":
			windows++
		case ev.Kind == span.KindInstant && ev.Name == "transition":
			transitions++
		}
		if ev.Kind == span.KindSpan && ev.End <= ev.Start {
			t.Fatalf("degenerate span %+v", ev)
		}
	}
	for me := 0; me < cfg.Chip.NumMEs; me++ {
		if execByME[fmt.Sprintf("me%d", me)] == 0 {
			t.Errorf("me%d recorded no exec spans", me)
		}
	}
	if idle == 0 || mem == 0 {
		t.Errorf("missing residency spans: idle=%d mem=%d", idle, mem)
	}
	if windows == 0 || transitions == 0 {
		t.Errorf("missing DVS decisions: windows=%d transitions=%d", windows, transitions)
	}
}

// TestTimelineRecordsFaultWindows asserts bounded faults appear as spans on
// the fault track with their plan interval.
func TestTimelineRecordsFaultWindows(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelMedium)
	cfg.Cycles = 500_000
	cfg.FaultPlan = &fault.Plan{Faults: []fault.Fault{{
		Kind: fault.KindMemSpike, Unit: "sdram",
		OnsetCycle: 100_000, DurationCycles: 50_000, Magnitude: 40,
	}}}

	events, _ := timelineRun(t, cfg)
	var found bool
	for _, ev := range events {
		if ev.Track == "fault" && ev.Kind == span.KindSpan {
			found = true
			if ev.Name != string(fault.KindMemSpike) {
				t.Errorf("fault span named %q", ev.Name)
			}
			if ev.Args["magnitude"] != 40 {
				t.Errorf("fault span args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("no fault window span recorded")
	}
}

// countingCache records how often the core consults it; every probe is a
// bug in the bypass tests below.
type countingCache struct{ lookups, stores int }

func (c *countingCache) Lookup(string) (*CachedRun, bool) {
	c.lookups++
	return nil, false
}
func (c *countingCache) Store(string, []byte, *CachedRun) { c.stores++ }

// TestTimelineBypassesCache asserts a run carrying a recorder never probes
// or populates the run cache — a hit could not replay the span stream.
func TestTimelineBypassesCache(t *testing.T) {
	cc := &countingCache{}
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 200_000
	cfg.Spans = span.NewRecorder()
	if _, err := RunCached(cfg, cc); err != nil {
		t.Fatal(err)
	}
	if cc.lookups != 0 || cc.stores != 0 {
		t.Fatalf("recorder run touched the cache: %d lookups, %d stores", cc.lookups, cc.stores)
	}
}
