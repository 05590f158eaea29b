package loc

import (
	_ "embed"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"nepdvs/internal/loc/rt"
)

// rtSource is the checker runtime every generated program embeds: the same
// file the in-process runner compiles, so both evaluate formulas with one
// body of code.
//
//go:embed rt/rt.go
var rtSource string

// GenerateGo emits a standalone, dependency-free Go program (package main)
// that evaluates the formula over a text-format trace read from a file
// argument or stdin. This mirrors the paper's flow of generating C trace
// checkers from LOC assertions. The program is package rt's source with its
// package clause rewritten, followed by the compiled formula, its static
// analysis and a short main; it is independent of this library and of the
// simulator that produced the trace.
func GenerateGo(f *Formula, schema map[string]bool) (string, error) {
	c, err := Compile(f, schema)
	if err != nil {
		return "", err
	}
	// Unnamed formulas default to f1, matching the in-process Runner's
	// naming for a single formula, so reports stay byte-identical.
	name := f.Name
	if name == "" {
		name = "f1"
	}
	rf := c.runtime(name)

	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	p("// Code generated by locgen from the LOC formula below; DO NOT EDIT.\n")
	p("//\n//\t%s\n//\n", f)
	p("// The program reads a text trace (columns: cycle time energy total_pkt\n")
	p("// total_bit event [key=value ...]) from the file named by its first\n")
	p("// argument, or stdin, and reports the %s result; -report PATH also\n", map[FormulaKind]string{KindCheck: "assertion", KindDist: "distribution"}[f.Kind])
	p("// writes the assertion report JSON.\n\n")
	b.WriteString(strings.Replace(rtSource, "\npackage rt\n", "\npackage main\n", 1))

	p("\n// The compiled formula.\nvar formula = &Formula{\n")
	p("\tName: %q,\n\tSrc:  %q,\n", rf.Name, rf.Src)
	if rf.Dist {
		p("\tDist: true,\n")
	} else {
		p("\tRel:  %d, // %s\n", rf.Rel, rf.Rel)
	}
	p("\tLHS: %s,\n", goProgram(&rf.LHS))
	if !rf.Dist {
		p("\tRHS: %s,\n", goProgram(&rf.RHS))
	}
	p("\tSlots: []Slot{\n")
	for _, s := range rf.Slots {
		p("\t\t{Src: %q, Ann: %q, Event: %q, Rel: %v, Off: %d},\n", s.Src, s.Ann, s.Event, s.Rel, s.Off)
	}
	p("\t},\n\tRetention: analysis.Retention,\n}\n\n")

	// The static-analysis block is a pure function of the formula, so it is
	// computed here once and embedded as a literal; the generated report then
	// matches loc.BuildReport byte for byte.
	ra := StaticAnalysis(f)
	p("// The formula's static analysis, precomputed at generation time.\n")
	p("var analysis = &ReportAnalysis{Verdict: %q, Exact: %v, Retention: map[string]int64{", ra.Verdict, ra.Exact)
	for k, ev := range sortedKeys(ra.Retention) {
		if k > 0 {
			p(", ")
		}
		p("%q: %d", ev, ra.Retention[ev])
	}
	p("}}\n\n")

	if f.Kind == KindCheck {
		p("func main() { os.Exit(Main(os.Args[1:], formula, analysis, nil)) }\n")
		return b.String(), nil
	}
	p("func main() {\n")
	p("\tt := newHist(%q, %s, %s, %s)\n", f.Dist.String(), goFloat(f.Period.Min), goFloat(f.Period.Max), goFloat(f.Period.Step))
	p("\tos.Exit(Main(os.Args[1:], formula, analysis, t))\n}\n")
	b.WriteString(histSource)
	return b.String(), nil
}

// goProgram renders a VM program as a Go composite literal.
func goProgram(prog *rt.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Program{MaxStack: %d, Code: []Instr{\n", prog.MaxStack)
	for _, in := range prog.Code {
		fmt.Fprintf(&b, "\t\t{Op: %d, Arg: %d, Val: %s}, // %s\n", in.Op, in.Arg, goFloat(in.Val), in.Op)
	}
	b.WriteString("\t}}")
	return b.String()
}

// goFloat renders v as a Go expression with exactly v's bits: folded
// constants may be infinite, NaN or negative zero.
func goFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		return "math.Inf(-1)"
	case math.IsNaN(v):
		return "math.NaN()"
	case v == 0 && math.Signbit(v):
		return "math.Copysign(0, -1)"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// histSource is the generated analyzer's distribution table: the binning
// and the hist/cdf/ccdf views of stats.Histogram, which a standalone program
// cannot import. TestGeneratedDistMatchesRunner pins the two together.
const histSource = `
// hist bins values over the analysis period <min, max, step>: bin 0 is
// (-inf, min], bin k covers (min+(k-1)*step, min+k*step], the last bin is
// (max, +inf). NaN values are counted apart.
type hist struct {
	op             string
	min, max, step float64
	bins           []int64
	nans           int64
}

func newHist(op string, lo, hi, step float64) *hist {
	n := int(math.Ceil((hi - lo) / step * (1 - 1e-12)))
	if n < 1 {
		n = 1
	}
	return &hist{op: op, min: lo, max: hi, step: step, bins: make([]int64, n+2)}
}

func (h *hist) Add(v float64) {
	if math.IsNaN(v) {
		h.nans++
		return
	}
	k := len(h.bins) - 1
	switch {
	case v <= h.min:
		k = 0
	case v <= h.max:
		k = min(max(int(math.Ceil((v-h.min)/h.step)), 1), len(h.bins)-2)
	}
	h.bins[k]++
}

func (h *hist) Print(instances, skipped int64) {
	fmt.Printf("# %s of %d instances over <%g, %g, %g> (%d NaN, %d skipped)\n",
		h.op, instances, h.min, h.max, h.step, h.nans, skipped)
	total := instances - h.nans
	if total == 0 {
		fmt.Println("# no instances")
		return
	}
	cum := int64(0)
	for k, n := range h.bins {
		switch h.op {
		case "hist":
			fmt.Printf("%g\t%.6f\n", h.edge(k), float64(n)/float64(total))
		case "cdf":
			cum += n
			fmt.Printf("%g\t%.6f\n", h.edge(k), float64(cum)/float64(total))
		case "ccdf":
			fmt.Printf("%g\t%.6f\n", h.edge(k-1), float64(total-cum)/float64(total))
			cum += n
		}
	}
}

func (h *hist) edge(k int) float64 {
	switch {
	case k <= 0:
		return h.min
	case k > len(h.bins)-2:
		return math.Inf(1)
	}
	return min(h.min+float64(k)*h.step, h.max)
}
`
