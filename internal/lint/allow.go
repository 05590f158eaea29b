package lint

import (
	"bufio"
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
)

// Allowlist encodes intentional, reviewed exemptions from det/* rules.
// Exemptions are granted rule-by-rule per package, never blanket: the
// progress meter in internal/obs legitimately calls time.Now, but it gets
// no pass on unsorted map iteration feeding its exports.
//
// The file format (conventionally lint.allow at the repo root) is line
// oriented:
//
//	# comment
//	internal/obs det/wallclock TTY progress redraw throttling is wall-clock by design
//
// i.e. <package-dir> <rule> <one-line justification>. The justification is
// mandatory — an exemption nobody can explain is a finding.
type Allowlist struct {
	// File is the path the list was loaded from ("" for in-memory lists).
	File string
	// entries maps "pkgdir\x00rule" to its justification and source line.
	entries map[string]allowEntry
	// used tracks which entries matched a finding, for Unused reporting.
	used map[string]bool
}

type allowEntry struct {
	justification string
	line          int
}

// ParseAllowlist parses allowlist text. src names the file for error
// positions only.
func ParseAllowlist(src, text string) (*Allowlist, error) {
	a := &Allowlist{File: src, entries: map[string]allowEntry{}, used: map[string]bool{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want \"<package-dir> <rule> <justification>\", got %q", src, lineNo, line)
		}
		dir := path.Clean(strings.TrimSuffix(fields[0], "/"))
		rule := fields[1]
		key := dir + "\x00" + rule
		if _, dup := a.entries[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry for %s %s", src, lineNo, dir, rule)
		}
		a.entries[key] = allowEntry{justification: strings.Join(fields[2:], " "), line: lineNo}
	}
	return a, sc.Err()
}

// LoadAllowlist reads an allowlist file. A missing file yields an empty
// (deny-everything-by-default) allowlist, so repos without exemptions need
// no file at all.
func LoadAllowlist(path string) (*Allowlist, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Allowlist{File: path, entries: map[string]allowEntry{}, used: map[string]bool{}}, nil
	}
	if err != nil {
		return nil, err
	}
	return ParseAllowlist(path, string(b))
}

// Allowed reports whether rule is exempted for the package directory
// pkgDir (slash-separated, repo-relative, e.g. "internal/obs").
func (a *Allowlist) Allowed(pkgDir, rule string) bool {
	if a == nil {
		return false
	}
	key := path.Clean(pkgDir) + "\x00" + rule
	if _, ok := a.entries[key]; ok {
		a.used[key] = true
		return true
	}
	return false
}

// Entries returns every (package-dir, rule) pair in the list, sorted.
func (a *Allowlist) Entries() [][2]string {
	if a == nil {
		return nil
	}
	var out [][2]string
	for key := range a.entries {
		parts := strings.SplitN(key, "\x00", 2)
		out = append(out, [2]string{parts[0], parts[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Unused returns one diagnostic per entry that exempted nothing during the
// run; stale exemptions should be deleted, not accumulated. Only meaningful
// after a full-tree lint.
func (a *Allowlist) Unused() []Diag {
	if a == nil {
		return nil
	}
	var out []Diag
	for key, e := range a.entries {
		if a.used[key] {
			continue
		}
		parts := strings.SplitN(key, "\x00", 2)
		file := a.File
		if file == "" {
			file = "lint.allow"
		}
		out = append(out, Diag{
			File: file, Line: e.line, Col: 1, Rule: RuleUnusedAllow,
			Msg: fmt.Sprintf("allowlist entry %s %s matched no finding; delete it", parts[0], parts[1]),
		})
	}
	SortDiags(out)
	return out
}
