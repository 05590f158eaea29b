package nepdvs

// The shipped formula profiles under profiles/ are the user-facing form of
// the presets the code generates programmatically; these tests pin the two
// together so neither can drift, and hold every shipped profile to the
// same static-analysis bar `locheck -analyze` enforces.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/loc"
)

// profileFormulas reads a profile file and strips comments and blank lines,
// leaving one formula per line.
func profileFormulas(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		out = append(out, line)
	}
	return out
}

func TestProfilesInSync(t *testing.T) {
	cases := []struct {
		path string
		want string
	}{
		{"profiles/standard.loc", core.StandardFormulas() + "\n" + core.IdleFormula(0)},
		{"profiles/robustness.loc", experiments.RobustnessFormulas()},
	}
	for _, tc := range cases {
		got := profileFormulas(t, tc.path)
		want := strings.Split(tc.want, "\n")
		if len(got) != len(want) {
			t.Errorf("%s holds %d formulas, generator emits %d", tc.path, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != strings.TrimSpace(want[i]) {
				t.Errorf("%s formula %d drifted from the generator:\n  file: %s\n  code: %s",
					tc.path, i, got[i], want[i])
			}
		}
	}
}

// TestProfilesAnalyzeClean is the in-process form of `locheck -analyze`:
// every shipped profile must survive the full semantic pass against the
// default chip's event vocabulary with zero findings.
func TestProfilesAnalyzeClean(t *testing.T) {
	paths, err := filepath.Glob("profiles/*.loc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped profiles found: %v", err)
	}
	sch := core.EventSchema()
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		diags, parsed := loc.AnalyzeFile(string(b), sch)
		if !parsed {
			t.Errorf("%s does not parse: %v", path, diags)
			continue
		}
		for _, d := range diags {
			t.Errorf("%s: %s", path, d)
		}
	}
}
