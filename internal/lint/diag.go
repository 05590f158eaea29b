// Package lint implements nepvet, the repo's three-front static-analysis
// suite. The paper's methodology is static specification checked against
// dynamic behaviour — LOC assertions are analyzed before any simulation
// runs — and this package applies the same analyze-before-run discipline to
// the three languages of the reproduction itself:
//
//   - the repo's own Go, whose byte-identical-per-seed determinism guarantee
//     is otherwise enforced by nothing (rules det/*),
//   - microengine assembly programs (rules asm/*, implemented in package
//     isa and surfaced through nepvet -asm),
//   - LOC formulas (rules loc/*, implemented in package loc and surfaced
//     through nepvet -loc, locheck -lint and locgen).
//
// Every analyzer emits "file:line:col: [rule] message" diagnostics; the
// nepvet command exits nonzero when any finding survives the allowlist.
// The finding type itself lives in package diag, which loc and isa import
// without pulling in this package's go/types machinery. This package
// depends only on the standard library (go/parser, go/ast, go/types,
// go/importer) and diag.
package lint

import "nepdvs/internal/lint/diag"

// Diag is one finding (see package diag for the rendering contract).
type Diag = diag.Diag

// SortDiags orders findings by file, then position, then rule.
func SortDiags(ds []Diag) { diag.Sort(ds) }
