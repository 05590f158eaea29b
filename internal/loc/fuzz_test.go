package loc

import (
	"math"
	"strings"
	"testing"

	"nepdvs/internal/loc/rt"
)

// FuzzLOCLexer: arbitrary formula source may be rejected but never panic
// the lexer, and every produced token must carry sane positions.
func FuzzLOCLexer(f *testing.F) {
	f.Add("power: (energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) cdf [0.5, 2.25, 0.01];")
	f.Add("tput_floor: total_bit(forward[i+1]) - total_bit(forward[i]) >= 40;")
	f.Add("x: idle_frac(m0_idle[i]) hist [0, 0.5, 0.05];")
	f.Add("")
	f.Add(";;;")
	f.Add("name with spaces : ???")
	f.Add("1e999")
	f.Add(".5.5.5")
	f.Add("[i+")
	f.Add("\x00\xff\xfe")
	f.Add(strings.Repeat("(", 1000))
	f.Add("// comment only")

	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexAll(src)
		if err != nil {
			return
		}
		for _, tok := range toks {
			if tok.Pos.Line < 1 || tok.Pos.Col < 1 {
				t.Fatalf("token %+v has an unpositioned location", tok)
			}
		}
	})
}

// FuzzLOCParse goes one layer up: a lexable formula may still be rejected
// by the parser, but never crash it.
func FuzzLOCParse(f *testing.F) {
	f.Add("p: energy(forward[i+1]) - energy(forward[i]) >= 0;")
	f.Add("q: time(a[i]) cdf [0, 1, 0.1];")
	f.Add("r: mhz(m0_vfchange[i]) <= 600")
	f.Add("broken: (((")
	f.Add("a: b[i] ; c: d[j] ;")

	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseFile(src)
	})
}

// FuzzWitnessRender hammers the witness-rendering pipeline with adversarial
// annotation values and window shapes: violation provenance flows straight
// from trace annotations into reports and CLI output, so Binding, Violation,
// CheckResult and Report rendering must never panic — and the density series,
// whose bin layout is derived from (possibly hostile) violation times, must
// never allocate unboundedly.
func FuzzWitnessRender(f *testing.F) {
	f.Add(int64(0), 70.0, 50.0, 0.5, 100.0, uint(3), int64(5))
	f.Add(int64(-9e18), math.NaN(), math.Inf(1), math.Inf(-1), -1.0, uint(0), int64(0))
	f.Add(int64(9e18), 1e308, -1e308, 1e-308, 5e307, uint(64), int64(200))
	f.Add(int64(7), 0.0, -0.0, math.NaN(), math.NaN(), uint(1), int64(1))

	f.Fuzz(func(t *testing.T, inst int64, lhs, rhs, tm, cyc float64, nbind uint, total int64) {
		if nbind > 256 {
			nbind = nbind % 256
		}
		v := Violation{Instance: inst, LHS: lhs, RHS: rhs, Time: tm}
		for k := uint(0); k < nbind; k++ {
			v.Witness = append(v.Witness, Binding{
				Ref:   "energy(forward[i+" + itoa(int64(k)) + "])",
				Event: "forward", Ann: "energy",
				Index: inst + int64(k), Value: lhs * float64(k),
				Cycle: cyc, Time: tm,
			})
		}
		_ = v.String()
		for _, b := range v.Witness {
			_ = b.String()
		}

		if total < 0 {
			total = -total
		}
		if total > 1000 {
			total %= 1000
		}
		c := &CheckResult{Instances: total, Total: total, Worst: &v}
		d := &Density{}
		for k := int64(0); k < total; k++ {
			c.Violations = append(c.Violations, v)
			d.Add(tm * float64(k))
		}
		c.Density = d
		if len(d.Counts) > rt.DensityBins {
			t.Fatalf("density grew past %d bins: %d (width %g)", rt.DensityBins, len(d.Counts), d.WidthUS)
		}
		if d.Total() != total {
			t.Fatalf("density lost violations: %d of %d", d.Total(), total)
		}
		_ = c.String()

		rep := BuildReport([]Result{{
			Name:    "fz",
			Formula: MustParse("energy(forward[i+1]) - energy(forward[i]) <= 0"),
			Check:   c,
		}})
		// Non-finite floats are unrepresentable in JSON — the report path only
		// ever receives trace-parsed (finite) values — so JSON() may error
		// here, but neither renderer may panic.
		_, _ = rep.JSON()
		_ = rep.Text()
	})
}

// FuzzFormulaLint runs the full parse+lint pipeline on arbitrary source:
// it must never panic, and every diagnostic must be well-formed and sorted
// by position.
func FuzzFormulaLint(f *testing.F) {
	f.Add("p: energy(forward[i+1]) - energy(forward[i]) >= 0;")
	f.Add("q: cycl(forward[i]) >= 0;")
	f.Add("r: cycle(forward[i+5000000]) - cycle(forward[i]) >= 0;")
	f.Add("s: 1 + 1 == 2;")
	f.Add("t: cycle(a[i]) / (5 - 5) cdf [2, 1, 0];")
	f.Add("broken: (((")

	schema := map[string]bool{"cycle": true, "energy": true, "time": true}
	f.Fuzz(func(t *testing.T, src string) {
		ds, parsed := LintFile(src, schema)
		if !parsed && len(ds) != 1 {
			t.Fatalf("unparsed source must yield exactly one diag, got %v", ds)
		}
		for i, d := range ds {
			if d.Rule == "" || d.Msg == "" {
				t.Fatalf("malformed diag %+v", d)
			}
			// Positions are file-global and formulas are linted in file
			// order, so lines never decrease across the findings stream.
			if i > 0 && parsed && ds[i-1].Line > d.Line {
				t.Fatalf("diags out of line order: %v", ds)
			}
		}
	})
}
