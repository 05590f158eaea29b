package stats

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := mustHistogram(0, 10, 0.5)
	for _, v := range []float64{-3, 0.2, 0.2, 4.9, 7.3, 11, math.NaN()} {
		h.Add(v)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.total != h.total || back.NaNs() != h.NaNs() {
		t.Fatalf("totals: got %d/%d want %d/%d", back.total, back.NaNs(), h.total, h.NaNs())
	}
	if back.Mean() != h.Mean() || back.StdDev() != h.StdDev() {
		t.Errorf("moments differ: %v/%v vs %v/%v", back.Mean(), back.StdDev(), h.Mean(), h.StdDev())
	}
	if back.lo != h.lo || back.hi != h.hi {
		t.Errorf("observed range differs")
	}
	for k := 0; k < h.NumBins()+2; k++ {
		if back.counts[k] != h.counts[k] {
			t.Errorf("bin %d: got %d want %d", k, back.counts[k], h.counts[k])
		}
	}
	// Marshaling the reconstruction reproduces the original bytes: the
	// property the content-addressed run cache relies on.
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Errorf("round-trip not byte-stable:\n%s\n%s", b, b2)
	}
}

func TestHistogramJSONEmpty(t *testing.T) {
	h := mustHistogram(0, 1, 0.1)
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if back.total != 0 || !math.IsInf(back.lo, 1) || !math.IsInf(back.hi, -1) {
		t.Errorf("empty histogram sentinels not restored: %v", back.String())
	}
}

func TestHistogramJSONRejectsBadShape(t *testing.T) {
	cases := []string{
		`{"min":0,"max":1,"step":0.5,"counts":[1,2]}`,     // wrong bin count
		`{"min":0,"max":1,"step":-1,"counts":[0,0,0,0]}`,  // bad period
		`{"min":0,"max":1,"step":0.5,"counts":[1,0,0,0]}`, // samples but no lo/hi
	}
	for _, src := range cases {
		var h Histogram
		if err := json.Unmarshal([]byte(src), &h); err == nil {
			t.Errorf("unmarshal %s: want error, got none", src)
		}
	}
}
