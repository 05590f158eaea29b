package loc

import (
	"math"
	"testing"

	"nepdvs/internal/trace"
)

// FuzzAnalyzeVsVM is the analyzer's soundness oracle: whatever the static
// pass certifies, the VM must confirm on every trace whose annotation values
// lie within StandardRanges. Concretely, for arbitrary formula source and an
// arbitrary in-range trace over the formula's own event vocabulary:
//
//   - VerdictAlwaysTrue  ⇒ zero violations and zero indeterminate instances
//   - VerdictAlwaysFalse ⇒ every evaluated instance violates, none indeterminate
//   - an Exact retention bound ⇒ the runner's ring high-water mark never
//     exceeds it
//
// +Inf is a legal stress value for float annotations (Inf ∈ [0, +inf]), so
// certified verdicts must survive Inf arithmetic too; the analyzer's NaN
// tracking is exactly what makes that safe to assert.
func FuzzAnalyzeVsVM(f *testing.F) {
	f.Add("energy(forward[i]) >= -1", uint64(1), uint16(8))
	f.Add("energy(forward[i]) >= energy(forward[i])", uint64(2), uint16(50))
	f.Add("energy(forward[i]) < 0", uint64(3), uint16(16))
	f.Add("time(forward[i]) != time(forward[i])", uint64(4), uint16(4))
	f.Add("cycle(forward[i+1]) - cycle(forward[i]) <= 50", uint64(5), uint16(120))
	f.Add("cycle(deq[i]) - cycle(enq[i]) <= 50", uint64(6), uint16(30))
	f.Add("cycle(forward[i]) - cycle(forward[10]) <= 5", uint64(7), uint16(40))
	f.Add("cycle(forward[i+20]) - cycle(forward[10]) <= 5", uint64(8), uint16(64))
	f.Add("energy(forward[i]) / time(forward[i]) == energy(forward[i]) / time(forward[i])", uint64(9), uint16(12))
	f.Add("total_bit(forward[i+1]) - total_bit(forward[i]) hist [0, 100, 10]", uint64(10), uint16(25))

	f.Fuzz(func(t *testing.T, src string, seed uint64, rounds uint16) {
		fl, err := Parse(src)
		if err != nil {
			return
		}
		a, err := Analyze(fl, StandardSchema())
		if err != nil {
			return
		}
		c, err := Compile(fl, StandardSchema())
		if err != nil {
			return
		}
		verdict, _, _, _ := checkVerdict(fl, StandardRanges())

		// Deterministic xorshift so failures reproduce from the corpus entry
		// alone; the package's det lint bans global rand here anyway.
		s := seed | 1
		next := func() uint64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return s
		}
		names := analysisEvents(a)
		n := int(rounds%512) + 1
		if n*len(names) > 2048 {
			n = 2048/len(names) + 1
		}
		// Round-robin over every referenced event so multi-event formulas
		// drain; cumulative annotations stay monotone, all values in-range.
		evs := make([]trace.Event, 0, n*len(names))
		var cyc, pkt, bit uint64
		for k := 0; k < n; k++ {
			for _, name := range names {
				cyc += next()%100 + 1
				pkt += next() % 4
				bit += next() % 4000
				ev := trace.Event{
					Name: name, Cycle: cyc, Time: float64(cyc) / 600,
					Energy: float64(next()%1_000_000) / 1000, TotalPkt: pkt, TotalBit: bit,
				}
				if next()%17 == 0 {
					ev.Energy = math.Inf(1)
				}
				evs = append(evs, ev)
			}
		}
		res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{}, c)
		if err != nil {
			// e.g. the runtime window limit tripped on a huge offset; the
			// soundness contract only covers completed runs.
			return
		}
		r := res[0]
		if fl.Kind == KindCheck {
			ch := r.Check
			switch verdict {
			case VerdictAlwaysTrue:
				if ch.Total != 0 || ch.Indeterminate != 0 {
					t.Fatalf("certified always-true, but VM saw %d violation(s), %d indeterminate on %d instance(s)\nformula: %s",
						ch.Total, ch.Indeterminate, ch.Instances, src)
				}
			case VerdictAlwaysFalse:
				if ch.Total != ch.Instances || ch.Indeterminate != 0 {
					t.Fatalf("certified always-false, but VM saw %d violation(s), %d indeterminate on %d instance(s)\nformula: %s",
						ch.Total, ch.Indeterminate, ch.Instances, src)
				}
			}
		}
		for ev, b := range a.Retention() {
			if b.Exact && r.WindowPeak > b.Instances {
				t.Fatalf("window peak %d exceeds exact static retention bound %d for event %q\nformula: %s",
					r.WindowPeak, b.Instances, ev, src)
			}
		}
	})
}
