// Package diag is the one finding type of the repo's static analyzers — the
// Go determinism rules (package lint), microengine assembly (package isa)
// and LOC formulas (package loc) — with its one renderer and ordering. It
// imports only fmt and sort, so the analyzers' packages can use it without
// pulling go/types into every binary that links them.
package diag

import (
	"fmt"
	"sort"
)

// Diag is one finding. It renders as "file:line:col: [rule] message";
// findings not yet attributed to a file (File == "") drop the "file:"
// prefix.
type Diag struct {
	File string
	Line int
	Col  int
	Rule string
	Msg  string
}

func (d Diag) String() string {
	if d.File == "" {
		return fmt.Sprintf("%d:%d: [%s] %s", d.Line, d.Col, d.Rule, d.Msg)
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// Sort orders findings by file, then position, then rule, then message —
// the stable order golden tests and CI output rely on.
func Sort(ds []Diag) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// InFile attributes every finding in ds to file and returns ds.
func InFile(file string, ds []Diag) []Diag {
	for i := range ds {
		ds[i].File = file
	}
	return ds
}
