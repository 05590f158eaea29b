package rt

import (
	"maps"
	"math"
	"strings"
	"testing"

	"nepdvs/internal/trace"
)

func TestRingGrowth(t *testing.T) {
	r := newRing(1, 1)
	for k := int64(0); k < 1000; k++ {
		r.pushSlot()[0] = float64(k)
	}
	for k := int64(0); k < 1000; k++ {
		if got := r.get(k)[0]; got != float64(k) {
			t.Fatalf("get(%d) = %v", k, got)
		}
	}
	r.trimBelow(990)
	if r.base != 990 || r.count != 10 {
		t.Fatalf("after trim base=%d count=%d", r.base, r.count)
	}
	if got := r.get(995)[0]; got != 995 {
		t.Fatalf("get(995) = %v", got)
	}
	r.pushSlot()[0] = 1000
	if got := r.get(1000)[0]; got != 1000 {
		t.Fatalf("get(1000) = %v", got)
	}
}

func TestRingPreallocExact(t *testing.T) {
	// A ring seeded with an exact bound should never reallocate while the
	// retained count stays within the bound.
	r := newRing(3, 101)
	if r.cap() != 101 {
		t.Fatalf("cap = %d, want 101", r.cap())
	}
	base := &r.data[0]
	for k := 0; k < 500; k++ {
		if r.count == 101 {
			r.trimBelow(r.base + 1)
		}
		r.pushSlot()[0] = float64(k)
	}
	if &r.data[0] != base {
		t.Fatal("ring reallocated despite staying within its exact bound")
	}
	// The prealloc is clamped so an absurd static bound cannot eat memory.
	if big := newRing(1, 1<<40); big.cap() != ringPrealloc {
		t.Fatalf("clamped cap = %d, want %d", big.cap(), ringPrealloc)
	}
}

// readAll drains a text trace through rt's reader into one reused event,
// as a checker does, keeping a copy of each.
func readAll(in string) ([]Event, error) {
	tr := NewTextReader(strings.NewReader(in))
	var out []Event
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil || !ok {
			return out, err
		}
		cp := ev
		cp.Extra = maps.Clone(ev.Extra)
		out = append(out, cp)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzTextLineVsReader pins rt's text parser, which generated checkers use,
// to trace.TextReader, which locheck uses: on every input both accept the
// same events with bit-equal values, or both reject it with the same error.
func FuzzTextLineVsReader(f *testing.F) {
	for _, s := range []string{
		"# cycle time(us) energy(uJ) total_pkt total_bit event [extras]\n365 1.573 0.768133 120 61440 m2_pipeline\n",
		"367 1.580 0.784506 121 61952 forward idle=0.25 fault_kind=2\n\n",
		"1.5 0 0 0 0 forward",
		"-3 0 0 0 0 forward",
		"1 0 0 2.5 0 forward",
		"1 0 0 0 0 forward =5",
		"1 2 3\n",
		"x 2 3 4 5 enq\n",
		"1 2 3 4 5 enq junk\n",
		"1 NaN -Inf 4 5 e k=1e400 k=-0\r\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, gotErr := readAll(in)
		tr := trace.NewTextReader(strings.NewReader(in))
		var want []trace.Event
		var wantErr error
		for {
			ev, ok, err := tr.Next()
			if err != nil || !ok {
				wantErr = err
				break
			}
			want = append(want, ev)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("errors differ: rt %v, trace %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("rt read %d events, trace %d", len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			if g.Name != w.Name || g.Cycle != w.Cycle || !sameFloat(g.Time, w.Time) || !sameFloat(g.Energy, w.Energy) ||
				g.TotalPkt != w.TotalPkt || g.TotalBit != w.TotalBit || len(g.Extra) != len(w.Extra) {
				t.Fatalf("event %d: rt %+v, trace %+v", k, g, w)
			}
			for key, wv := range w.Extra {
				if gv, ok := g.Extra[key]; !ok || !sameFloat(gv, wv) {
					t.Fatalf("event %d extra %q: rt %v (%v), trace %v", k, key, gv, ok, wv)
				}
			}
		}
	})
}
