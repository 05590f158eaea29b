package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nepdvs/internal/sim"
	"nepdvs/internal/trace"
)

func TestRecorderMergesContiguousSpans(t *testing.T) {
	r := NewRecorder()
	r.Span("me0", "exec", "me", 0, 100, nil)
	r.Span("me0", "exec", "me", 100, 250, nil)
	r.Span("me0", "exec", "me", 250, 300, nil)
	if len(r.events) != 1 {
		t.Fatalf("contiguous same-name spans: got %d events, want 1 merged", len(r.events))
	}
	ev := r.Events()[0]
	if ev.Start != 0 || ev.End != 300 {
		t.Fatalf("merged span = [%d, %d), want [0, 300)", ev.Start, ev.End)
	}

	// A gap breaks the merge.
	r.Span("me0", "exec", "me", 400, 500, nil)
	if len(r.events) != 2 {
		t.Fatalf("gapped span merged: %d events", len(r.events))
	}
	// A different name on the same track breaks it too.
	r.Span("me0", "idle", "me", 500, 600, nil)
	r.Span("me0", "exec", "me", 600, 700, nil)
	if len(r.events) != 4 {
		t.Fatalf("name change should not merge: %d events", len(r.events))
	}
	// Args suppress merging.
	r.Span("sdram", "read", "mem", 0, 10, map[string]float64{"words": 4})
	r.Span("sdram", "read", "mem", 10, 20, map[string]float64{"words": 4})
	if len(r.events) != 6 {
		t.Fatalf("arg-carrying spans merged: %d events", len(r.events))
	}
}

func TestRecorderDropsEmptySpans(t *testing.T) {
	r := NewRecorder()
	r.Span("me0", "exec", "me", 100, 100, nil)
	r.Span("me0", "exec", "me", 100, 50, nil)
	if len(r.events) != 0 {
		t.Fatalf("empty/negative spans recorded: %d events", len(r.events))
	}
}

func TestMarshalChromeShape(t *testing.T) {
	r := NewRecorder()
	r.Span("me0", "exec", "me", 0, 2*sim.Microsecond, nil)
	r.Instant("me0 vf", "vfchange", "dvs", sim.Microsecond, map[string]float64{"mhz": 550})
	r.Counter("dvs", "tdvs_level", sim.Microsecond, 1)
	b, err := MarshalChrome(r.Events())
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	// process_name + 3 thread_name metadata + 3 events.
	if len(parsed.TraceEvents) != 7 {
		t.Fatalf("got %d trace events, want 7", len(parsed.TraceEvents))
	}
	byPh := map[string]int{}
	for _, e := range parsed.TraceEvents {
		byPh[e.Ph]++
		if e.Ph == "X" {
			if e.Ts != 0 || e.Dur != 2 {
				t.Fatalf("span ts/dur = %v/%v µs, want 0/2", e.Ts, e.Dur)
			}
		}
		if e.Ph == "C" && e.Args["value"] != 1.0 {
			t.Fatalf("counter args = %v", e.Args)
		}
	}
	if byPh["M"] != 4 || byPh["X"] != 1 || byPh["i"] != 1 || byPh["C"] != 1 {
		t.Fatalf("phase mix %v", byPh)
	}
}

func TestMarshalChromeDeterministic(t *testing.T) {
	build := func() []Event {
		r := NewRecorder()
		r.Span("me1", "exec", "me", 0, 500, map[string]float64{"b": 2, "a": 1, "c": 3})
		r.Instant("fault", "mem_spike", "fault", 250, map[string]float64{"magnitude": 50, "kind": 1})
		r.Counter("dvs", "lvl", 300, 2)
		return r.Events()
	}
	a, err := MarshalChrome(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalChrome(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical event slices marshaled to different bytes")
	}
}

func TestFromTrace(t *testing.T) {
	src := &trace.SliceSource{Events: []trace.Event{
		{Name: "fifo", Cycle: 10, Time: 1.5, Energy: 0.25, TotalPkt: 1, TotalBit: 800},
		{Name: "m2_vfchange", Cycle: 20, Time: 3.0, Energy: 0.50, Extra: map[string]float64{"mhz": 550}},
		{Name: "forward", Cycle: 30, Time: 4.5, Energy: 0.75, TotalPkt: 1, TotalBit: 800},
	}}
	evs, err := FromTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	var instants, counters int
	tracks := map[string]bool{}
	for _, e := range evs {
		tracks[e.Track] = true
		switch e.Kind {
		case KindInstant:
			instants++
		case KindCounter:
			counters++
		}
	}
	if instants != 3 {
		t.Fatalf("instants = %d, want 3", instants)
	}
	// energy changes 3×, forwarded once.
	if counters != 4 {
		t.Fatalf("counters = %d, want 4", counters)
	}
	if !tracks["me2"] || !tracks["chip"] {
		t.Fatalf("tracks = %v, want me2 and chip", tracks)
	}
	for _, e := range evs {
		if e.Track == "me2" && e.Name != "vfchange" {
			t.Fatalf("me2 event name = %q, want prefix stripped", e.Name)
		}
	}

	if _, err := FromTrace(&trace.SliceSource{}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty trace error = %v", err)
	}
}

func TestSplitTrack(t *testing.T) {
	cases := []struct{ in, track, name string }{
		{"m0_idle", "me0", "idle"},
		{"m12_pipeline", "me12", "pipeline"},
		{"forward", "chip", "forward"},
		{"mx_odd", "chip", "mx_odd"},
		{"m_", "chip", "m_"},
	}
	for _, c := range cases {
		track, name := splitTrack(c.in)
		if track != c.track || name != c.name {
			t.Errorf("splitTrack(%q) = (%q, %q), want (%q, %q)", c.in, track, name, c.track, c.name)
		}
	}
}
