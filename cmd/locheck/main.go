// Command locheck evaluates LOC assertion formulas against a simulation
// trace: checkers report violations, distribution formulas print their
// hist/cdf/ccdf tables. Traces may be text or binary (auto-detected) and
// are streamed in O(window) memory. With -lint the formulas are statically
// linted (structure only) and no trace is read; with -analyze they get the
// full semantic analysis — interval-derived relation verdicts, vacuity
// against the chip's event vocabulary, tautology/contradiction/subsumption
// across the file — still without reading a trace.
//
// Examples:
//
//	locheck -e 'cycle(deq[i]) - cycle(enq[i]) <= 50' run.trc
//	locheck -f formulas.loc run.trc
//	locheck -f formulas.loc -report report.json run.trc
//	locheck -lint -f formulas.loc
//	locheck -analyze -f formulas.loc
//	nepsim -trace /dev/stdout | locheck -f formulas.loc
//
// With -report PATH the unified assertion report (loc.Report JSON: verdicts,
// violation witnesses, worst offender, violation density) is additionally
// written to PATH; the exit status is unchanged by the flag itself.
//
// Exit status:
//
//	0  all checkers pass (or -lint/-analyze find nothing); with -report,
//	   the report was written
//	1  assertion failure (the report, if requested, is still written)
//	2  usage or parse errors
//	3  lint or analysis findings
//	4  I/O errors (unreadable formulas or trace, unwritable -report path)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"nepdvs/internal/cli"
	"nepdvs/internal/core"
	"nepdvs/internal/lint/diag"
	"nepdvs/internal/loc"
	"nepdvs/internal/trace"
)

func main() {
	var (
		expr     = flag.String("e", "", "formula source text")
		file     = flag.String("f", "", "formula file")
		noSchema = flag.Bool("no-schema", false, "skip annotation-name checking against the standard trace schema")
		lintOnly = flag.Bool("lint", false, "statically lint the formulas and exit without reading a trace")
		analyze  = flag.Bool("analyze", false, "run the full semantic static analysis (verdicts, vacuity, cross-formula) and exit without reading a trace")
		report   = flag.String("report", "", "write the assertion report JSON to this file")
	)
	flag.Parse()
	code, err := run(*expr, *file, *noSchema, *lintOnly, *analyze, *report, flag.Args())
	if err != nil {
		// I/O failures (unreadable formula file or trace) exit 4; everything
		// else reaching here is a usage or parse problem and exits 2.
		var pe *fs.PathError
		if errors.As(err, &pe) {
			cli.DieIO("locheck", err)
		}
		cli.DieUsage("locheck", err)
	}
	os.Exit(code)
}

func run(expr, file string, noSchema, lintOnly, analyze bool, report string, args []string) (int, error) {
	src := expr
	if file != "" {
		if src != "" {
			return 0, fmt.Errorf("use -e or -f, not both")
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return 0, err
		}
		src = string(b)
	}
	if src == "" {
		return 0, fmt.Errorf("no formulas given (use -e or -f)")
	}
	schema := core.TraceSchema()
	if noSchema {
		schema = nil
	}
	if lintOnly && analyze {
		return 0, fmt.Errorf("use -lint or -analyze, not both")
	}
	if lintOnly || analyze {
		mode := "-lint"
		if analyze {
			mode = "-analyze"
		}
		if report != "" {
			return 0, fmt.Errorf("%s evaluates no trace; -report has nothing to write", mode)
		}
		if len(args) > 0 {
			return 0, fmt.Errorf("%s reads no trace; drop the %q argument", mode, args[0])
		}
		if analyze {
			// The semantic pass gets the full schema — annotation value
			// ranges plus the default chip's event vocabulary — unless
			// -no-schema asks for pure structure checking.
			sch := core.EventSchema()
			if noSchema {
				sch = nil
			}
			return diagnose(loc.AnalyzeFile(src, sch))
		}
		return diagnose(loc.LintFile(src, schema))
	}
	in := os.Stdin
	if len(args) > 1 {
		return 0, fmt.Errorf("at most one trace file argument")
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return 0, err
		}
		defer f.Close()
		in = f
	}
	source, err := trace.OpenSource(in)
	if err != nil {
		return 0, err
	}
	results, err := loc.RunFormulas(src, source, schema)
	if err != nil {
		return 0, err
	}
	failed := false
	for _, r := range results {
		fmt.Print(r.Summary())
		if r.Check != nil && !r.Check.Passed() {
			failed = true
		}
	}
	if report != "" {
		b, err := loc.BuildReport(results).JSON()
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(report, b, 0o644); err != nil {
			// os.WriteFile returns *fs.PathError, so main exits 4 (I/O).
			return 0, err
		}
	}
	if failed {
		return cli.ExitRuntime, nil
	}
	return 0, nil
}

// diagnose renders a static-analysis outcome: parse errors exit 2 like
// every other malformed invocation, findings exit 3, a clean bill exits 0.
func diagnose(diags []diag.Diag, parsed bool) (int, error) {
	for _, d := range diags {
		fmt.Println(d)
	}
	if !parsed {
		return cli.ExitUsage, nil
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "locheck: %d finding(s)\n", len(diags))
		return cli.ExitLint, nil
	}
	return 0, nil
}
