// Package diag is the one finding type of the repo's static analyzers — the
// Go determinism rules (package lint), microengine assembly (package isa)
// and LOC formulas (package loc) — with its one renderer and ordering, plus
// the one did-you-mean heuristic for unknown names. It imports only fmt,
// sort and strings, so the analyzers' packages (and the policy registry)
// can use it without pulling go/types into every binary that links them.
package diag

import (
	"fmt"
	"sort"
	"strings"
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

// Suggest returns the name in known closest to name, case-folded, when the
// edit distance is at most 2 — close enough to look like a typo — and ""
// otherwise. Ties go to the earliest name in known.
func Suggest(name string, known []string) string {
	best, bestDist := "", 3
	for _, k := range known {
		if d := editDistance(strings.ToLower(name), strings.ToLower(k)); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance over bytes.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
