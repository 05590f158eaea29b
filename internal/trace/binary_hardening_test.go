package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/iotest"
)

// sampleTraceBytes encodes a small two-name trace for corruption tests.
func sampleTraceBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	evs := []Event{
		{Name: "forward", Cycle: 100, Time: 1.5, Energy: 0.25, TotalPkt: 1, TotalBit: 512},
		{Name: "m0_idle", Cycle: 200, Time: 3.0, Energy: 0.5, TotalPkt: 1, TotalBit: 512},
		{Name: "forward", Cycle: 300, Time: 4.5, Energy: 0.75, TotalPkt: 2, TotalBit: 1024},
	}
	setExtra(&evs[1], "idle_frac", 0.125)
	for i := range evs {
		if err := w.Emit(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads a source to its end, returning the events and final error.
func drain(t testing.TB, src Source, max int) ([]Event, error) {
	t.Helper()
	var out []Event
	for i := 0; ; i++ {
		if i > max {
			t.Fatalf("reader did not terminate within %d records", max)
		}
		ev, ok, err := src.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, ev.Clone())
	}
}

func TestBinaryReaderReportsOffsets(t *testing.T) {
	data := sampleTraceBytes(t)

	// Every proper prefix must either parse cleanly (record boundary) or
	// fail with a truncation error that names an in-range byte offset.
	for cut := 4; cut < len(data); cut++ {
		r := newBinaryReader(bytes.NewReader(data[:cut]))
		_, err := drain(t, r, len(data))
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d: unexpected error kind: %v", cut, err)
		}
		if !strings.Contains(err.Error(), "at byte offset") {
			t.Fatalf("cut at %d: error lacks byte offset: %v", cut, err)
		}
	}

	// Full truncation of the final record must report an offset no larger
	// than what was read.
	r := newBinaryReader(bytes.NewReader(data[:len(data)-1]))
	if _, err := drain(t, r, len(data)); err == nil {
		t.Fatal("truncated trace parsed cleanly")
	} else if !strings.Contains(err.Error(), "at byte offset") {
		t.Fatalf("error lacks byte offset: %v", err)
	}
}

func TestBinaryReaderBadMagicOffset(t *testing.T) {
	r := newBinaryReader(strings.NewReader("XXXXrest"))
	_, err := drain(t, r, 4)
	if err == nil || !strings.Contains(err.Error(), "bad magic") ||
		!strings.Contains(err.Error(), "at byte offset 4") {
		t.Fatalf("bad-magic error = %v", err)
	}
}

func TestBinaryReaderNameIDOffset(t *testing.T) {
	// Magic plus a reference to name id 9 with an empty table: the error
	// must point just past the offending varint (offset 5).
	r := newBinaryReader(bytes.NewReader([]byte("NPT1\x09")))
	_, err := drain(t, r, 4)
	if err == nil || !strings.Contains(err.Error(), "name id 9 out of range") ||
		!strings.Contains(err.Error(), "at byte offset 5") {
		t.Fatalf("name-id error = %v", err)
	}
}

func TestBinaryReaderVarintOverflow(t *testing.T) {
	// 11 continuation bytes in the cycle field: a varint that cannot fit
	// in 64 bits must be rejected, not wrapped around.
	data := []byte("NPT1\x00\x01f") // name def: "f"
	for i := 0; i < 10; i++ {
		data = append(data, 0xff)
	}
	data = append(data, 0x7f)
	r := newBinaryReader(bytes.NewReader(data))
	_, err := drain(t, r, 4)
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("overflow error = %v", err)
	}
}

func TestBinaryReaderErrorSticky(t *testing.T) {
	data := sampleTraceBytes(t)
	r := newBinaryReader(bytes.NewReader(data[:len(data)-1]))
	_, err1 := drain(t, r, len(data))
	if err1 == nil {
		t.Fatal("expected an error")
	}
	_, _, err2 := r.Next()
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second Next returned %v, want the sticky %v", err2, err1)
	}
}

// FuzzBinaryReader: no input, however mangled, may panic the reader or
// keep it spinning; round-trips of writer output must parse back exactly.
// Every input is also read one byte per Read call, which keeps the bufio
// buffer nearly empty and so sends records down the byte-exact path instead
// of the in-buffer one: both reads must give the same events and the same
// error.
func FuzzBinaryReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NPT1"))
	f.Add([]byte("not a trace at all"))
	valid := sampleTraceBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff))
	f.Add([]byte("NPT1\x00\x00"))                 // zero-length name
	f.Add([]byte("NPT1\xff\xff\xff\xff\xff\x0f")) // huge name id
	_, pipeline := pipelineStream(f, 40)
	f.Add(pipeline)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each parsed record consumes at least one byte, so the record
		// count is bounded by the input length.
		got, gotErr := drain(t, newBinaryReader(bytes.NewReader(data)), len(data)+1)
		want, wantErr := drain(t, newBinaryReader(iotest.OneByteReader(bytes.NewReader(data))), len(data)+1)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("errors differ: buffered read %v, byte-at-a-time read %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("buffered read gave %d events, byte-at-a-time read %d", len(got), len(want))
		}
		for k := range want {
			if !sameEvent(&got[k], &want[k]) || (got[k].Extra == nil) != (want[k].Extra == nil) {
				t.Fatalf("event %d: buffered read %+v, byte-at-a-time read %+v", k, got[k], want[k])
			}
		}
	})
}
