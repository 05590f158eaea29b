package rt

import (
	"bufio"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
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

// readAll drains a text trace through rt's reader, as a checker does,
// keeping a copy of each event.
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

// oracleRead is the reference text reader: the straightforward
// strings.Fields parser that the in-place one replaced, kept as the
// semantic oracle for FuzzTextLineVsReader.
func oracleRead(in string) ([]Event, error) {
	sc := bufio.NewScanner(strings.NewReader(in))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Event
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := parseTextLine(line)
		if err != nil {
			return out, fmt.Errorf("trace: line %d: %w", n, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

func parseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return Event{}, fmt.Errorf("want at least 6 fields, got %d in %q", len(fields), line)
	}
	var ev Event
	var err error
	if ev.Cycle, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad cycle %q: %v", fields[0], err)
	}
	if ev.Time, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return Event{}, fmt.Errorf("bad time %q: %v", fields[1], err)
	}
	if ev.Energy, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return Event{}, fmt.Errorf("bad energy %q: %v", fields[2], err)
	}
	if ev.TotalPkt, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad total_pkt %q: %v", fields[3], err)
	}
	if ev.TotalBit, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad total_bit %q: %v", fields[4], err)
	}
	ev.Name = fields[5]
	if ev.Name == "" {
		return Event{}, fmt.Errorf("empty event name in %q", line)
	}
	for _, f := range fields[6:] {
		k, vs, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return Event{}, fmt.Errorf("bad extra annotation %q", f)
		}
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad extra annotation value %q: %v", f, err)
		}
		if ev.Extra == nil {
			ev.Extra = make(map[string]float64, 2)
		}
		ev.Extra[k] = v
	}
	return ev, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameEvent compares events bit for bit, including whether Extra is nil.
func sameEvent(g, w *Event) bool {
	if g.Name != w.Name || g.Cycle != w.Cycle || !sameFloat(g.Time, w.Time) || !sameFloat(g.Energy, w.Energy) ||
		g.TotalPkt != w.TotalPkt || g.TotalBit != w.TotalBit ||
		len(g.Extra) != len(w.Extra) || (g.Extra == nil) != (w.Extra == nil) {
		return false
	}
	for key, wv := range w.Extra {
		if gv, ok := g.Extra[key]; !ok || !sameFloat(gv, wv) {
			return false
		}
	}
	return true
}

// FuzzTextLineVsReader pins the in-place text parser, which locheck and
// generated checkers share, to the strings.Fields oracle: on every input
// both accept the same events with bit-equal values, or both reject it
// with the same error string. Non-ASCII white space (U+00A0, U+0085, ...)
// separates fields and is trimmed exactly as strings.Fields and TrimSpace
// treat it.
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
		"1\u00a02 3 4 5 e k=1\n",
		"1 2 3 4 5 e\u0085k=1\u00a0j=2\n",
		"\u00a0# comment\n\u0085\n1 2 3 4 5 e\n",
		"\u00a01 2 3\u0085\n",
		"1 2 3 4 5 n\u00e9 k\u2000=1\n",
		"1 2 3 4 5 e \xff\xa0 k=\xc2\xa0\n",
		"1 2 3 4 5 \xc2 e\u3000k=0x1p-2\n",
		"1 2 3 4 5 e k=1 k=2 \u2028",
		// Limits of the number fast paths: 19 and 20 digits, 2^64, 2^53,
		// 22 and 23 fractional digits, signs and bare points.
		"9999999999999999999 90071992547409.93 900719925474099.5 18446744073709551615 0 e\n",
		"1 9007199254740993 -0.000 0 18446744073709551616 e\n",
		"10000000000000000000 0 0 0 0 e\n",
		"1 0.0000000000000000000001 0.00000000000000000000001 0 0 e k=.5 j=5. i=-.5\n",
		"1 -0 0.12345678901234567890 0 0 e k=+1 j=1e5 i=-\n",
		"1 . 0 0 0 e\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, gotErr := readAll(in)
		want, wantErr := oracleRead(in)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("errors differ: reader %v, oracle %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("reader read %d events, oracle %d", len(got), len(want))
		}
		for k := range want {
			if !sameEvent(&got[k], &want[k]) {
				t.Fatalf("event %d: reader %+v, oracle %+v", k, got[k], want[k])
			}
		}
	})
}

// The intern table stops at InternCap entries; names and keys past it are
// still read back exactly.
func TestTextReaderInternCap(t *testing.T) {
	var in strings.Builder
	n := InternCap + 500
	for k := 0; k < n; k++ {
		fmt.Fprintf(&in, "%d 0 0 0 0 e%d k%d=%d\n", k, k, k, k)
	}
	tr := NewTextReader(strings.NewReader(in.String()))
	var ev Event
	for k := 0; k < n; k++ {
		if ok, err := tr.Next(&ev); !ok || err != nil {
			t.Fatalf("event %d: ok=%v err=%v", k, ok, err)
		}
		key := fmt.Sprintf("k%d", k)
		if ev.Cycle != uint64(k) || ev.Name != fmt.Sprintf("e%d", k) || len(ev.Extra) != 1 || ev.Extra[key] != float64(k) {
			t.Fatalf("event %d read back as %+v", k, ev)
		}
	}
	if got := len(tr.strs.m); got != InternCap {
		t.Fatalf("intern table holds %d entries, want the cap %d", got, InternCap)
	}
}

// TestTextNumbersMatchStrconv holds the text reader's number fast paths to
// strconv: the same bits and the same error text on every input, at the
// edges of the fast paths (19 digits, 2^53, 22 fractional digits, 2^64)
// and over a fixed-seed sweep of decimals as the trace writers print them.
func TestTextNumbersMatchStrconv(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	checkUint := func(s string) {
		t.Helper()
		got, gotErr := parseUint([]byte(s))
		want, wantErr := strconv.ParseUint(s, 10, 64)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Errorf("parseUint(%q) = %d, %v; strconv gives %d, %v", s, got, gotErr, want, wantErr)
		}
	}
	checkFloat := func(s string) {
		t.Helper()
		got, gotErr := parseFloat([]byte(s))
		want, wantErr := strconv.ParseFloat(s, 64)
		if !sameFloat(got, want) || errText(gotErr) != errText(wantErr) {
			t.Errorf("parseFloat(%q) = %v (%#x), %v; strconv gives %v (%#x), %v",
				s, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
		}
	}
	for _, s := range []string{
		"", "0", "00", "007", "+1", "-0", "1_0", "0x10", "1.0", " 1", "1e5", "١",
		"9999999999999999999", "10000000000000000000", // 19 and 20 digits
		"18446744073709551615", "18446744073709551616", // 2^64-1 and 2^64
		"0000000000000000000018446744073709551615",
	} {
		checkUint(s)
	}
	for _, s := range []string{
		"", "0", "-0", "-0.000", "0.000", ".5", "-.5", "5.", "-5.", ".", "-", "-.", "--1",
		"+1", "1e5", "1E5", "0x1p-2", "1_0", "1..2", "1.2.3", "inf", "-Inf", "NaN", "infinity",
		"007.5", "0000000000000000000.1", "00000000000000000001.5",
		"9007199254740991", "9007199254740992", "9007199254740993", // 2^53-1, 2^53, 2^53+1
		"900719925474099.1", "900719925474099.3", "90071992547409.93", "900719925474099.5",
		"-900719925474099.7", "4503599627370497.5",
		"1234567890123456789", "12345678901234567890", // 19 and 20 digits
		"0.1234567890123456789", "0.12345678901234567890",
		"0.0000000000000000000001", "0.00000000000000000000001", // 22 and 23 fractional digits
		"0.0000000000000000000007", "0.00000000000000000000007",
		"1.7976931348623157e308", "1e400", "4.9e-324", "1e-400",
	} {
		checkFloat(s)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		x := rng.Float64() * math.Pow10(rng.Intn(22)-6)
		if rng.Intn(2) == 0 {
			x = -x
		}
		for p := 0; p <= 9; p++ {
			checkFloat(strconv.FormatFloat(x, 'f', p, 64))
		}
		checkUint(strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10))
		// Random digit strings with a random point straddle every limit
		// of the fast paths: length, 2^53 and the fractional digit count.
		digits := make([]byte, 1+rng.Intn(24))
		for k := range digits {
			digits[k] = byte('0' + rng.Intn(10))
		}
		checkUint(string(digits))
		dot := rng.Intn(len(digits) + 1)
		checkFloat(string(digits[:dot]) + "." + string(digits[dot:]))
	}
}
