package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

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
		"npt1": newBinaryReader(bytes.NewReader(npt1)),
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
	for name, src := range map[string]Source{"text": NewTextReader(&tb), "npt1": newBinaryReader(&bb)} {
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
	all, err := drain(t, newBinaryReader(bytes.NewReader(data)), 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(data); k++ {
		got, err := drain(t, newBinaryReader(bytes.NewReader(data[:k])), 10)
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
			setExtra(&evs[k], fmt.Sprintf("k%d", k*perEvent+j), float64(k*perEvent+j))
		}
	}
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
		func(s Sink) error { return s.(*BinaryWriter).Close() },
		func(b *bytes.Buffer) Source { return newBinaryReader(b) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("events with more distinct keys than the intern cap did not round-trip")
	}
}

// A read error ends either format with that error, and no event is made
// of the bytes after the last complete line or record. The text reader
// once parsed the partial line the scanner held when the read failed.
func TestReadErrorEndsTrace(t *testing.T) {
	text, npt1 := pipelineStream(t, 5000)
	for name, data := range map[string][]byte{"text": text, "npt1": npt1} {
		for _, c := range []struct {
			name   string
			r      io.Reader
			n      int  // bytes delivered before the error
			direct bool // read through the format's own reader, not OpenSource
		}{
			// OpenSource's first read fills its 64 KiB buffer; the second
			// read times out.
			{"timeout", iotest.TimeoutReader(bytes.NewReader(data)), 1 << 16, false},
			{"mid-record", io.MultiReader(bytes.NewReader(data[:70001]), iotest.ErrReader(iotest.ErrTimeout)), 70001, false},
			// The last Read returns complete lines and a cut one together
			// with the error; OpenSource's bufio.Reader would split the two.
			{"data-with-error", &chunkErrReader{data: data[:70001]}, 70001, true},
		} {
			var src Source
			var err error
			if !c.direct {
				if src, err = OpenSource(c.r); err != nil {
					t.Fatal(err)
				}
			} else if name == "text" {
				src = NewTextReader(c.r)
			} else {
				src = newBinaryReader(c.r)
			}
			got, readErr := drain(t, src, len(data))
			if !errors.Is(readErr, iotest.ErrTimeout) {
				t.Errorf("%s %s: error %v, want the read error", name, c.name, readErr)
			}
			if want := fmt.Sprintf("timeout at byte offset %d", c.n); name == "npt1" && fmt.Sprint(readErr) != want {
				t.Errorf("%s %s: error %q, want %q", name, c.name, readErr, want)
			}
			complete := data[:c.n]
			if name == "text" {
				complete = complete[:bytes.LastIndexByte(complete, '\n')+1]
			}
			cut, err := OpenSource(bytes.NewReader(complete))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := drain(t, cut, len(data))
			if len(got) != len(want) || len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: read %d events, want the %d complete ones before the error", name, c.name, len(got), len(want))
			}
		}
	}
}

// chunkErrReader delivers data in reads of at most 4 KiB and returns
// iotest.ErrTimeout together with the last of them.
type chunkErrReader struct{ data []byte }

func (r *chunkErrReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), 4096)], r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, iotest.ErrTimeout
	}
	return n, nil
}

func BenchmarkTextNext(b *testing.B)   { benchNext(b, false) }
func BenchmarkBinaryNext(b *testing.B) { benchNext(b, true) }

func benchNext(b *testing.B, binary bool) {
	text, npt1 := pipelineStream(b, 10000)
	open := func() Source {
		if binary {
			return newBinaryReader(bytes.NewReader(npt1))
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
