package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events").Add(42)
	r.Gauge("heap_hw").Set(17)
	r.Histogram("wall_ms", []float64{1, 10, 100}).Observe(3)

	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.Snapshot().WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(readFile(t, path), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["sim_events"] != 42 || s.Gauges["heap_hw"] != 17 {
		t.Errorf("round trip lost values: %+v", s)
	}
	h := s.Histograms["wall_ms"]
	if h.Count != 1 || h.Counts[1] != 1 {
		t.Errorf("histogram round trip: %+v", h)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(3)
	r.Gauge("queue-depth/hw").Set(5.5) // name needs sanitizing
	h := r.Histogram("wall", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE runs_total counter",
		"runs_total 3",
		"# TYPE queue_depth_hw gauge",
		"queue_depth_hw 5.5",
		"# TYPE wall histogram",
		`wall_bucket{le="1"} 1`,
		`wall_bucket{le="2"} 2`,
		`wall_bucket{le="+Inf"} 3`,
		"wall_sum 11",
		"wall_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	render := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Inc()
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render([]string{"b", "a", "c"}) != render([]string{"c", "b", "a"}) {
		t.Error("prometheus output depends on insertion order")
	}
}
