package loc

import "nepdvs/internal/loc/rt"

// ReportSchema versions the assertion-report JSON layout (see rt).
const ReportSchema = rt.ReportSchema

// The report types live in package rt so the in-process runner and
// generated checkers marshal the same types.
type (
	FormulaReport  = rt.FormulaReport
	Report         = rt.Report
	ReportAnalysis = rt.ReportAnalysis
)

// BuildReport assembles the assertion report for a set of formula results.
// Building it from round-tripped Results (e.g. a stored job artifact) yields
// bytes identical to building it from the live run.
func BuildReport(results []Result) *Report {
	rep := &Report{Schema: ReportSchema, Formulas: make([]FormulaReport, 0, len(results))}
	for _, r := range results {
		c := r.Check
		if d := r.Dist; d != nil {
			c = &CheckResult{Instances: d.Instances, Skipped: d.Skipped}
		}
		rep.Formulas = append(rep.Formulas,
			rt.Section(r.Name, r.Formula.String(), r.Dist != nil, c, r.WindowPeak, StaticAnalysis(r.Formula)))
	}
	return rep
}
