package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEvents() []Event {
	evs := []Event{
		{Name: "m2_pipeline", Cycle: 365, Time: 1.573, Energy: 0.768133, TotalPkt: 120, TotalBit: 61440},
		{Name: "forward", Cycle: 367, Time: 1.580, Energy: 0.784506, TotalPkt: 121, TotalBit: 61952},
		{Name: "fifo", Cycle: 368, Time: 1.583, Energy: 0.794108, TotalPkt: 121, TotalBit: 61952},
	}
	evs[2].SetExtra("port", 3)
	evs[2].SetExtra("idle_frac", 0.35)
	return evs
}

func TestAnnotationLookup(t *testing.T) {
	ev := sampleEvents()[0]
	cases := []struct {
		name string
		want float64
	}{
		{AnnCycle, 365},
		{AnnTime, 1.573},
		{AnnEnergy, 0.768133},
		{AnnTotalPkt, 120},
		{AnnTotalBit, 61440},
	}
	for _, c := range cases {
		got, ok := ev.Annotation(c.name)
		if !ok || got != c.want {
			t.Errorf("Annotation(%q) = %v, %v; want %v, true", c.name, got, ok, c.want)
		}
	}
	if _, ok := ev.Annotation("bogus"); ok {
		t.Error("unknown annotation should report !ok")
	}
	ev.SetExtra("x", 7)
	if v, ok := ev.Annotation("x"); !ok || v != 7 {
		t.Errorf("extra annotation = %v, %v", v, ok)
	}
}

func TestMEEvent(t *testing.T) {
	if got := MEEvent(2, EvPipeline); got != "m2_pipeline" {
		t.Errorf("MEEvent = %q", got)
	}
}

func TestEventString(t *testing.T) {
	evs := sampleEvents()
	if got := evs[0].String(); got != "365 1.573 0.768133 120 61440 m2_pipeline" {
		t.Errorf("String() = %q", got)
	}
	s := evs[2].String()
	// extras must render sorted for determinism
	if !strings.Contains(s, "idle_frac=0.35 port=3") {
		t.Errorf("extras not sorted in %q", s)
	}
}

func roundTrip(t *testing.T, evs []Event, mkW func(*bytes.Buffer) Sink, done func(Sink) error, mkR func(*bytes.Buffer) Source) []Event {
	t.Helper()
	var buf bytes.Buffer
	w := mkW(&buf)
	for i := range evs {
		if err := w.Emit(&evs[i]); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if err := done(w); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := mkR(&buf)
	var got []Event
	for {
		ev, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, ev.Clone())
	}
	return got
}

func TestTextRoundTrip(t *testing.T) {
	evs := sampleEvents()
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewTextWriter(b) },
		func(s Sink) error { return s.(*TextWriter).Close() },
		func(b *bytes.Buffer) Source { return NewTextReader(b) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("text round trip:\n got %+v\nwant %+v", got, evs)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	evs := sampleEvents()
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
		func(s Sink) error { return s.(*BinaryWriter).Close() },
		func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("binary round trip:\n got %+v\nwant %+v", got, evs)
	}
}

// Property: both encodings round-trip arbitrary event streams exactly
// (times/energies restricted to finite values; text format keeps 3/6
// decimals so we quantize inputs accordingly).
func TestRoundTripProperty(t *testing.T) {
	gen := func(seed int64, n int) []Event {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"forward", "fifo", "m0_pipeline", "m5_pipeline", "idle"}
		evs := make([]Event, n)
		var cyc uint64
		for i := range evs {
			cyc += uint64(rng.Intn(100))
			evs[i] = Event{
				Name:     names[rng.Intn(len(names))],
				Cycle:    cyc,
				Time:     math.Round(rng.Float64()*1e6) / 1e3,
				Energy:   math.Round(rng.Float64()*1e9) / 1e6,
				TotalPkt: uint64(rng.Intn(1e6)),
				TotalBit: uint64(rng.Intn(1e9)),
			}
			if rng.Intn(3) == 0 {
				evs[i].SetExtra("k", math.Round(rng.Float64()*1e6)/1e3)
			}
		}
		return evs
	}
	f := func(seed int64, nn uint8) bool {
		evs := gen(seed, int(nn)%50+1)
		gotT := roundTrip(t, evs,
			func(b *bytes.Buffer) Sink { return NewTextWriter(b) },
			func(s Sink) error { return s.(*TextWriter).Close() },
			func(b *bytes.Buffer) Source { return NewTextReader(b) })
		gotB := roundTrip(t, evs,
			func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
			func(s Sink) error { return s.(*BinaryWriter).Close() },
			func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
		return reflect.DeepEqual(gotT, evs) && reflect.DeepEqual(gotB, evs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []string{
		"1 2 3",                          // too few fields
		"x 1.0 1.0 1 1 forward",          // bad cycle
		"1 y 1.0 1 1 forward",            // bad time
		"1 1.0 z 1 1 forward",            // bad energy
		"1 1.0 1.0 q 1 forward",          // bad total_pkt
		"1 1.0 1.0 1 q forward",          // bad total_bit
		"1 1.0 1.0 1 1 forward garbage",  // malformed extra
		"1 1.0 1.0 1 1 forward k=potato", // bad extra value
		"1 1.0 1.0 1 1 forward =3",       // empty extra key
	}
	for _, line := range cases {
		r := NewTextReader(strings.NewReader(line + "\n"))
		if _, _, err := r.Next(); err == nil {
			t.Errorf("line %q: expected parse error", line)
		} else if _, _, err2 := r.Next(); err2 == nil {
			t.Errorf("line %q: reader did not stay failed", line)
		}
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n  \n1 1.0 1.0 1 1 forward\n# trailing\n"
	r := NewTextReader(strings.NewReader(in))
	ev, ok, err := r.Next()
	if err != nil || !ok || ev.Name != "forward" {
		t.Fatalf("Next = %+v, %v, %v", ev, ok, err)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestBinaryReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	evs := sampleEvents()
	for i := range evs {
		if err := w.Emit(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full := buf.Bytes()
	// Truncate mid-record: keep magic plus a few bytes.
	r := NewBinaryReader(bytes.NewReader(full[:len(full)-5]))
	n := 0
	for {
		_, ok, err := r.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("truncated trace reported clean EOF")
		}
		n++
		if n > len(evs) {
			t.Fatal("read more events than written")
		}
	}
}

func TestBinaryReaderBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("JUNKJUNKJUNK"))
	if _, _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected magic error, got %v", err)
	}
}

func TestBinaryReaderEmpty(t *testing.T) {
	r := NewBinaryReader(bytes.NewReader(nil))
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("empty input: ok=%v err=%v, want clean EOF", ok, err)
	}
}

func TestOpenSourceSniffing(t *testing.T) {
	evs := sampleEvents()
	var tbuf, bbuf bytes.Buffer
	tw := NewTextWriter(&tbuf)
	bw := NewBinaryWriter(&bbuf)
	for i := range evs {
		tw.Emit(&evs[i])
		bw.Emit(&evs[i])
	}
	tw.Close()
	bw.Close()
	for name, buf := range map[string]*bytes.Buffer{"text": &tbuf, "binary": &bbuf} {
		src, err := OpenSource(buf)
		if err != nil {
			t.Fatalf("%s: OpenSource: %v", name, err)
		}
		count := 0
		for {
			_, ok, err := src.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !ok {
				break
			}
			count++
		}
		if count != len(evs) {
			t.Errorf("%s: read %d events, want %d", name, count, len(evs))
		}
	}
}

func TestEmitAfterClose(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTextWriter(&buf)
	tw.Close()
	ev := sampleEvents()[0]
	if err := tw.Emit(&ev); err == nil {
		t.Error("TextWriter.Emit after Close should error")
	}
	bw := NewBinaryWriter(&buf)
	bw.Close()
	if err := bw.Emit(&ev); err == nil {
		t.Error("BinaryWriter.Emit after Close should error")
	}
}

func TestCollectorDeepCopies(t *testing.T) {
	var c Collector
	ev := Event{Name: "x"}
	ev.SetExtra("a", 1)
	c.Emit(&ev)
	ev.Extra["a"] = 99
	ev.Name = "mutated"
	if c.Events[0].Extra["a"] != 1 || c.Events[0].Name != "x" {
		t.Error("Collector must deep-copy events")
	}
	src := c.Source()
	got, ok, _ := src.Next()
	if !ok || got.Name != "x" {
		t.Errorf("Source replay = %+v, %v", got, ok)
	}
}

func TestMultiAndFilterSinks(t *testing.T) {
	var a, b Collector
	var count CountingSink
	ms := MultiSink{&a, &FilterSink{Allow: map[string]bool{"forward": true}, Dest: &b}, &count}
	for _, ev := range sampleEvents() {
		ev := ev
		if err := ms.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Events) != 3 {
		t.Errorf("unfiltered sink got %d events", len(a.Events))
	}
	if len(b.Events) != 1 || b.Events[0].Name != "forward" {
		t.Errorf("filtered sink got %+v", b.Events)
	}
	if count.Counts["fifo"] != 1 || count.Counts["forward"] != 1 {
		t.Errorf("counting sink = %v", count.Counts)
	}
	// Empty allow set forwards everything.
	var c Collector
	fs := &FilterSink{Dest: &c}
	ev := sampleEvents()[0]
	fs.Emit(&ev)
	if len(c.Events) != 1 {
		t.Error("empty FilterSink should forward all events")
	}
}

func TestBinaryNameInterning(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	ev := Event{Name: "forward"}
	for i := 0; i < 100; i++ {
		ev.Cycle = uint64(i)
		if err := w.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// 100 events with one interned 7-byte name should be far below the
	// naive 100*(7+1) bytes of name data.
	if buf.Len() > 100*22+4+16 {
		t.Errorf("binary encoding too large: %d bytes", buf.Len())
	}
	r := NewBinaryReader(&buf)
	n := 0
	for {
		got, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got.Name != "forward" || got.Cycle != uint64(n) {
			t.Fatalf("event %d = %+v", n, got)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("read %d events", n)
	}
}

// emitEvent is the steady-state write-path event: an ME pipeline event with
// its one extra.
func emitEvent() Event {
	ev := sampleEvents()[0]
	ev.SetExtra("instrs", 17)
	return ev
}

func BenchmarkTextEmit(b *testing.B) {
	w := NewTextWriter(io.Discard)
	ev := emitEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Cycle = uint64(i)
		w.Emit(&ev)
	}
}

func BenchmarkBinaryEmit(b *testing.B) {
	w := NewBinaryWriter(io.Discard)
	ev := emitEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Cycle = uint64(i)
		w.Emit(&ev)
	}
}

// Once the scratch buffers have grown, neither writer allocates per event.
func TestEmitAllocationFree(t *testing.T) {
	for name, w := range map[string]Sink{
		"text":   NewTextWriter(io.Discard),
		"binary": NewBinaryWriter(io.Discard),
	} {
		ev := emitEvent()
		if err := w.Emit(&ev); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			ev.Cycle++
			ev.Time += 0.25
			if err := w.Emit(&ev); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s Emit allocates %v times per event, want 0", name, allocs)
		}
	}
}

func TestFilterSource(t *testing.T) {
	evs := sampleEvents()
	fs := &FilterSource{Allow: map[string]bool{"forward": true}, Src: &SliceSource{Events: evs}}
	var got []Event
	for {
		ev, ok, err := fs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 1 || got[0].Name != "forward" {
		t.Fatalf("filtered events = %+v", got)
	}
	// Empty allow set passes everything through.
	all := &FilterSource{Src: &SliceSource{Events: evs}}
	n := 0
	for {
		_, ok, err := all.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != len(evs) {
		t.Fatalf("unfiltered count = %d, want %d", n, len(evs))
	}
	// Errors propagate.
	bad := &FilterSource{Allow: map[string]bool{"x": true}, Src: NewTextReader(strings.NewReader("bad line\n"))}
	if _, _, err := bad.Next(); err == nil {
		t.Fatal("source error swallowed")
	}
}

// oracleLine is the text line format as first written with fmt: the
// reference the append-based formatter must match byte for byte.
func oracleLine(e *Event) string {
	s := fmt.Sprintf("%d %.3f %.6f %d %d %s", e.Cycle, e.Time, e.Energy, e.TotalPkt, e.TotalBit, e.Name)
	keys := make([]string, 0, len(e.Extra))
	for k := range e.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%g", k, e.Extra[k])
	}
	return s
}

// checkTextLine asserts that String and a TextWriter both render ev exactly
// as the oracle does.
func checkTextLine(t *testing.T, ev *Event) {
	t.Helper()
	want := oracleLine(ev)
	if got := ev.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if ev.Name == "" {
		return // the writer refuses it; see TestWritersRejectUnreadable
	}
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	if err := w.Emit(ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), textHeader+"\n"+want+"\n"; got != want {
		t.Fatalf("TextWriter wrote %q, want %q", got, want)
	}
}

func TestTextLineMatchesOracle(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e-7, 1e300, -1e300, 0.0005, 0.0015, 9.9995, 0.0000005, 1.5e-6,
		1.573, 123456789.123456789, 1e21, 1e20, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -2.5, 0.1 + 0.2,
	}
	for _, v := range values {
		for nextra := 0; nextra <= 3; nextra++ {
			ev := Event{Name: "m2_pipeline", Cycle: math.MaxUint64, Time: v, Energy: v, TotalPkt: 0, TotalBit: 61440}
			for k := 0; k < nextra; k++ {
				ev.SetExtra([]string{"volts", "idle_frac", "mhz"}[k], v*float64(k+1))
			}
			checkTextLine(t, &ev)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		ev := randomEvent(rng)
		checkTextLine(t, &ev)
	}
}

// randomFloat mixes raw bit patterns (NaN, Inf, subnormals, huge values)
// with simulator-like magnitudes and rounding ties.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return rng.Float64() * 1e6
	case 2:
		return float64(rng.Intn(1e7))/1e4 + 0.0005
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

// randomEvent returns an event with random annotations, a random non-empty
// name and zero to three extras with random non-empty keys.
func randomEvent(rng *rand.Rand) Event {
	randName := func() string {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	ev := Event{
		Name:     randName(),
		Cycle:    rng.Uint64() >> uint(rng.Intn(64)),
		Time:     randomFloat(rng),
		Energy:   randomFloat(rng),
		TotalPkt: rng.Uint64() >> uint(rng.Intn(64)),
		TotalBit: rng.Uint64() >> uint(rng.Intn(64)),
	}
	for n := rng.Intn(4); n > 0; n-- {
		ev.SetExtra(randName(), randomFloat(rng))
	}
	return ev
}

// sameEvent compares events bit for bit, so NaN payloads and -0 count.
func sameEvent(a, b *Event) bool {
	if a.Name != b.Name || a.Cycle != b.Cycle || a.TotalPkt != b.TotalPkt || a.TotalBit != b.TotalBit ||
		math.Float64bits(a.Time) != math.Float64bits(b.Time) ||
		math.Float64bits(a.Energy) != math.Float64bits(b.Energy) || len(a.Extra) != len(b.Extra) {
		return false
	}
	for k, v := range a.Extra {
		w, ok := b.Extra[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	evs := make([]Event, 3000)
	for i := range evs {
		evs[i] = randomEvent(rng)
		if i > 0 && rng.Intn(2) == 0 {
			evs[i].Name = evs[rng.Intn(i)].Name // exercise interned names
		}
	}
	got := roundTrip(t, evs,
		func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
		func(s Sink) error { return s.(*BinaryWriter).Close() },
		func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
	if len(got) != len(evs) {
		t.Fatalf("read %d events, wrote %d", len(got), len(evs))
	}
	for i := range evs {
		if !sameEvent(&got[i], &evs[i]) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], evs[i])
		}
	}
}

// Every event a reader would reject is refused by its writer, and the
// refusal leaves the stream readable: the events around it round-trip.
func TestWritersRejectUnreadable(t *testing.T) {
	manyExtras := Event{Name: "wide"}
	for i := 0; i <= maxExtras; i++ {
		manyExtras.SetExtra(fmt.Sprintf("k%d", i), 1)
	}
	binaryCases := map[string]Event{
		"empty name":      {Name: ""},
		"long name":       {Name: strings.Repeat("n", maxNameLen+1)},
		"empty extra key": {Name: "fifo", Extra: map[string]float64{"": 1}},
		"long extra key":  {Name: "fifo", Extra: map[string]float64{strings.Repeat("k", maxExtraKey+1): 1}},
		"too many extras": manyExtras,
	}
	for name, bad := range binaryCases {
		good := sampleEvents()
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		if err := w.Emit(&good[0]); err != nil {
			t.Fatal(err)
		}
		if err := w.Emit(&bad); err == nil {
			t.Errorf("%s: BinaryWriter accepted an event its reader rejects", name)
		}
		// A refused record must not intern its name: the same name with
		// valid extras still defines it inline.
		retry := Event{Name: bad.Name, Cycle: 9}
		want := []Event{good[0]}
		if retry.Name != "" && len(retry.Name) <= maxNameLen {
			if err := w.Emit(&retry); err != nil {
				t.Fatalf("%s: retry: %v", name, err)
			}
			want = append(want, retry)
		}
		for i := 1; i < len(good); i++ {
			if err := w.Emit(&good[i]); err != nil {
				t.Fatal(err)
			}
			want = append(want, good[i])
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := drain(t, NewBinaryReader(&buf), 100)
		if err != nil {
			t.Fatalf("%s: reading back: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read back\n %+v\nwant %+v", name, got, want)
		}
	}

	// The limits themselves are legal and round-trip.
	edge := Event{Name: strings.Repeat("n", maxNameLen)}
	for i := 0; i < maxExtras-1; i++ {
		edge.SetExtra(fmt.Sprintf("k%d", i), float64(i))
	}
	edge.SetExtra(strings.Repeat("k", maxExtraKey), 2)
	got := roundTrip(t, []Event{edge},
		func(b *bytes.Buffer) Sink { return NewBinaryWriter(b) },
		func(s Sink) error { return s.(*BinaryWriter).Close() },
		func(b *bytes.Buffer) Source { return NewBinaryReader(b) })
	if len(got) != 1 || !reflect.DeepEqual(got[0], edge) {
		t.Fatal("event at the binary limits did not round-trip")
	}

	var buf bytes.Buffer
	tw := NewTextWriter(&buf)
	if err := tw.Emit(&Event{}); err == nil {
		t.Error("TextWriter accepted an empty event name")
	}
	good := sampleEvents()
	if err := tw.Emit(&good[0]); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	gotT, err := drain(t, NewTextReader(&buf), 10)
	if err != nil || !reflect.DeepEqual(gotT, good[:1]) {
		t.Fatalf("text read back %+v, %v", gotT, err)
	}
}

func FuzzTextLine(f *testing.F) {
	f.Add(uint64(365), 1.573, 0.768133, uint64(120), uint64(61440), "m2_pipeline", "instrs", 17.0)
	f.Add(uint64(0), math.Copysign(0, -1), math.NaN(), uint64(0), uint64(0), "fifo", "", math.Inf(-1))
	f.Add(uint64(1<<63), 9.9995, 0.0005, uint64(1), uint64(2), "x", "idle_frac", 1e-7)
	f.Fuzz(func(t *testing.T, cycle uint64, tm, energy float64, pkt, bit uint64, name, key string, v float64) {
		ev := Event{Name: name, Cycle: cycle, Time: tm, Energy: energy, TotalPkt: pkt, TotalBit: bit}
		if key != "" {
			ev.SetExtra(key, v)
			ev.SetExtra(key+"_2", -v)
		}
		checkTextLine(t, &ev)
	})
}
