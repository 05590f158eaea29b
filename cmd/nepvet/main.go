// Command nepvet is the repo's three-front static-analysis suite — the
// paper's analyze-before-run methodology applied to the reproduction's own
// three languages:
//
//	nepvet                      lint the repo's Go for determinism hazards
//	nepvet internal/sim cmd/…   lint specific package directories
//	nepvet -asm prog.asm…       lint microengine assembly programs
//	nepvet -loc formulas.loc…   statically analyze LOC assertion formulas
//
// Go rules (det/*) guard the byte-identical-per-seed guarantee: wall-clock
// and global-rand calls inside deterministic packages, map iteration
// feeding serialization without a sort, os.Exit/log.Fatal outside cmd/ and
// internal/cli, and order-sensitive float accumulation. Intentional
// exemptions live rule-by-rule per package in lint.allow; single findings
// can carry an inline "//nepvet:allow <rule> <why>" comment.
//
// A full-tree run (no directory arguments) sees every user of every
// package, so it adds two checks: api/unused flags an exported name of an
// internal/ package that no non-test file uses (methods that implement an
// interface are exempt), and allow/unused flags every lint.allow entry and
// inline allow that suppressed nothing.
//
// Diagnostics print one per line as "file:line:col: [rule] message".
// Exit status: 0 clean, 1 findings, 2 usage or analysis errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nepdvs/internal/cli"
	"nepdvs/internal/core"
	"nepdvs/internal/isa"
	"nepdvs/internal/lint"
	"nepdvs/internal/lint/diag"
	"nepdvs/internal/loc"
)

func main() {
	var (
		asmMode  = flag.Bool("asm", false, "lint microengine assembly files")
		locMode  = flag.Bool("loc", false, "statically analyze LOC formula files (lints + semantic pass)")
		root     = flag.String("root", ".", "repository root for Go linting")
		allow    = flag.String("allow", "", "allowlist file (default <root>/lint.allow)")
		det      = flag.String("det", "", "comma-separated deterministic package dirs (overrides the built-in set; used by fixture tests)")
		noSchema = flag.Bool("no-schema", false, "with -loc: skip annotation schema checking")
	)
	flag.Parse()

	var (
		diags []lint.Diag
		err   error
	)
	switch {
	case *asmMode && *locMode:
		cli.DieUsage("nepvet", fmt.Errorf("use -asm or -loc, not both"))
	case *asmMode:
		diags, err = lintAsmFiles(flag.Args())
	case *locMode:
		sch := core.EventSchema()
		if *noSchema {
			sch = nil
		}
		diags, err = lintLocFiles(flag.Args(), sch)
	default:
		diags, err = lintGoTree(*root, *allow, *det, flag.Args())
	}
	if err != nil {
		cli.DieUsage("nepvet", err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nepvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func lintGoTree(root, allowPath, det string, dirs []string) ([]lint.Diag, error) {
	if allowPath == "" {
		allowPath = filepath.Join(root, "lint.allow")
	}
	al, err := lint.LoadAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	cfg := lint.GoConfig{Root: root, Allow: al}
	if det != "" {
		cfg.Deterministic = strings.Split(det, ",")
	}
	var target []string
	if len(dirs) > 0 {
		target = dirs
	}
	diags, err := lint.LintGo(cfg, target)
	if err != nil {
		return nil, err
	}
	// A full-tree run also audits the allowlist itself: an entry that
	// exempted nothing is stale and must be deleted. (LintGo audits the
	// inline allows.)
	if target == nil {
		diags = append(diags, al.Unused()...)
	}
	return diags, nil
}

func lintAsmFiles(files []string) ([]lint.Diag, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("-asm needs at least one assembly file")
	}
	var out []lint.Diag
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		out = append(out, diag.InFile(filepath.ToSlash(path), isa.LintSource(name, string(b)))...)
	}
	lint.SortDiags(out)
	return out, nil
}

func lintLocFiles(files []string, sch *loc.Schema) ([]lint.Diag, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("-loc needs at least one formula file")
	}
	var out []lint.Diag
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ds, _ := loc.AnalyzeFile(string(b), sch)
		out = append(out, diag.InFile(filepath.ToSlash(path), ds)...)
	}
	lint.SortDiags(out)
	return out, nil
}
