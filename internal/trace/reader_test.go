package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nepdvs/internal/loc/rt"
)

// pipelineStream encodes n steady-state pipeline events, mN_pipeline with a
// varying instrs extra, in both formats.
func pipelineStream(t testing.TB, n int) (text, npt1 []byte) {
	t.Helper()
	var tb, bb bytes.Buffer
	tw, bw := NewTextWriter(&tb), NewBinaryWriter(&bb)
	ev := Event{Extra: map[string]float64{}}
	for k := 0; k < n; k++ {
		ev.Name = MEEvent(k%6, EvPipeline)
		ev.Cycle = uint64(365 + 7*k)
		ev.Time = float64(ev.Cycle) / 600
		ev.Energy = 0.001 * float64(k)
		ev.TotalPkt, ev.TotalBit = uint64(k/10), uint64(k/10)*512
		ev.Extra["instrs"] = float64(200 + k%57)
		if err := tw.Emit(&ev); err != nil {
			t.Fatal(err)
		}
		if err := bw.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), bb.Bytes()
}

// Once names and keys are interned, neither reader allocates per event.
func TestNextAllocationFree(t *testing.T) {
	text, npt1 := pipelineStream(t, 2000)
	for name, src := range map[string]Source{
		"text": NewTextReader(bytes.NewReader(text)),
		"npt1": NewBinaryReader(bytes.NewReader(npt1)),
	} {
		next := func() {
			ev, ok, err := src.Next()
			if !ok || err != nil || ev.Extra["instrs"] < 200 {
				t.Fatalf("%s: Next = %+v, %v, %v", name, ev, ok, err)
			}
		}
		for k := 0; k < 20; k++ {
			next()
		}
		if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
			t.Errorf("%s Next allocates %v times per event, want 0", name, allocs)
		}
	}
}

// An event's Extra belongs to the reader: the next call clears it, and
// Clone is how a caller keeps it.
func TestNextLendsExtra(t *testing.T) {
	evs := sampleEvents() // fifo, the last one, carries two extras
	evs = append(evs, Event{Name: "forward", Cycle: 400})
	var tb, bb bytes.Buffer
	tw, bw := NewTextWriter(&tb), NewBinaryWriter(&bb)
	for i := range evs {
		tw.Emit(&evs[i])
		bw.Emit(&evs[i])
	}
	tw.Close()
	bw.Close()
	for name, src := range map[string]Source{"text": NewTextReader(&tb), "npt1": NewBinaryReader(&bb)} {
		for i := 0; i < 2; i++ {
			if ev, _, err := src.Next(); err != nil || ev.Extra != nil {
				t.Fatalf("%s: event %d = %+v, %v; want no extras", name, i, ev, err)
			}
		}
		fifo, _, err := src.Next()
		if err != nil || !reflect.DeepEqual(fifo, evs[2]) {
			t.Fatalf("%s: fifo read back as %+v, %v", name, fifo, err)
		}
		kept := fifo.Clone()
		fwd, ok, err := src.Next()
		if !ok || err != nil || fwd.Extra != nil {
			t.Fatalf("%s: forward = %+v, %v, %v", name, fwd, ok, err)
		}
		if len(fifo.Extra) != 0 {
			t.Errorf("%s: previous event's Extra = %v after a later Next, want it cleared", name, fifo.Extra)
		}
		if !reflect.DeepEqual(kept, evs[2]) {
			t.Errorf("%s: cloned event = %+v, want %+v", name, kept, evs[2])
		}
	}
}

// Cutting a trace at any byte k either ends on a record boundary, yielding
// exactly the records before it, or fails at offset k: the reader consumes
// every byte it was given before reporting the truncation.
func TestBinaryTruncationSweep(t *testing.T) {
	data := sampleTraceBytes(t)
	all, err := drain(t, NewBinaryReader(bytes.NewReader(data)), 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(data); k++ {
		got, err := drain(t, NewBinaryReader(bytes.NewReader(data[:k])), 10)
		if err != nil {
			if want := fmt.Sprintf("trace: truncated binary trace at byte offset %d", k); err.Error() != want {
				t.Fatalf("cut at %d: error %q, want %q", k, err, want)
			}
			continue
		}
		if len(got) > 0 && !reflect.DeepEqual(got, all[:len(got)]) {
			t.Fatalf("cut at %d: read %+v, want a prefix of %+v", k, got, all)
		}
	}
}

// Extra keys past the intern cap are no longer shared but still read back
// exactly.
func TestBinaryKeyInternCap(t *testing.T) {
	const perEvent = 8
	n := (rt.InternCap + 500) / perEvent
	evs := make([]Event, n)
	for k := range evs {
		evs[k] = Event{Name: "fifo", Cycle: uint64(k)}
		for j := 0; j < perEvent; j++ {
			evs[k].SetExtra(fmt.Sprintf("k%d", k*perEvent+j), float64(k*perEvent+j))
		}
	}
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
		func(s Sink) error { return s.(*BinaryWriter).Close() },
		func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("events with more distinct keys than the intern cap did not round-trip")
	}
}

func BenchmarkTextNext(b *testing.B)   { benchNext(b, false) }
func BenchmarkBinaryNext(b *testing.B) { benchNext(b, true) }

func benchNext(b *testing.B, binary bool) {
	text, npt1 := pipelineStream(b, 10000)
	open := func() Source {
		if binary {
			return NewBinaryReader(bytes.NewReader(npt1))
		}
		return NewTextReader(bytes.NewReader(text))
	}
	src := open()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := src.Next(); err != nil {
			b.Fatal(err)
		} else if !ok {
			src = open()
		}
	}
}
