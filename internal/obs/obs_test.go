package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("events") != c {
		t.Error("Counter did not return the existing metric")
	}
	g := r.Gauge("depth")
	g.Set(3.5)
	g.Add(1.5)
	if got := g.Value(); got != 5.0 {
		t.Errorf("gauge = %v, want 5", got)
	}
	g.SetMax(2) // below current: no-op
	if got := g.Value(); got != 5.0 {
		t.Errorf("SetMax lowered the gauge to %v", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9.0 {
		t.Errorf("SetMax = %v, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 3.0, 100.0} {
		h.Observe(v)
	}
	s := h.snapshot()
	// v<=1 -> bucket0 (0.5, 1.0); <=2 -> bucket1 (1.5); <=4 -> bucket2
	// (3.0); overflow (100).
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Errorf("count/sum = %d/%v, want 5/106", s.Count, s.Sum)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("gauge over existing counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestEdgeBuilders(t *testing.T) {
	exp := ExponentialEdges(1, 2, 4)
	if exp[3] != 8 {
		t.Errorf("ExponentialEdges = %v", exp)
	}
}

// TestConcurrentWriters exercises every metric type from many goroutines;
// run with -race (the acceptance criterion) to prove the registry is safe
// for parallel sweep workers.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("runs").Inc()
				r.Gauge("hw").SetMax(float64(i))
				r.Gauge("acc").Add(1)
				r.Histogram("wall", []float64{10, 100, 1000}).Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["runs"] != workers*iters {
		t.Errorf("runs = %d, want %d", s.Counters["runs"], workers*iters)
	}
	if s.Gauges["hw"] != iters-1 {
		t.Errorf("high water = %v, want %d", s.Gauges["hw"], iters-1)
	}
	if s.Gauges["acc"] != workers*iters {
		t.Errorf("acc = %v, want %d", s.Gauges["acc"], workers*iters)
	}
	if s.Histograms["wall"].Count != workers*iters {
		t.Errorf("hist count = %d, want %d", s.Histograms["wall"].Count, workers*iters)
	}
}

// TestSnapshotDeterminism builds the same registry twice through different
// insertion orders and checks byte-identical JSON — the -metrics
// reproducibility property.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(names []string) []byte {
		r := NewRegistry()
		for _, n := range names {
			r.Counter("c_" + n).Add(7)
			r.Gauge("g_" + n).Set(1.25)
			r.Histogram("h_"+n, []float64{1, 2}).Observe(1.5)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ across insertion order:\n%s\nvs\n%s", a, b)
	}
}
