package lint

import (
	"fmt"
	"strings"
	"testing"
)

// fixtureAllow exempts the service-layer fixture and carries one entry that
// matches nothing, so the unused report is exercised too.
const fixtureAllow = `svcpkg det/wallclock service fixture stamps real submit times
svcpkg det/exit matches nothing; must surface as allow/unused
`

func fixtureConfig(t *testing.T) GoConfig {
	t.Helper()
	al, err := ParseAllowlist("lint.allow", fixtureAllow)
	if err != nil {
		t.Fatalf("ParseAllowlist: %v", err)
	}
	return GoConfig{
		Root:          "testdata/src",
		Deterministic: []string{"detpkg"},
		ProgramLayer:  []string{"cmd"},
		Allow:         al,
	}
}

func TestLintGoFixtures(t *testing.T) {
	cfg := fixtureConfig(t)
	diags, err := LintGo(cfg, nil)
	if err != nil {
		t.Fatalf("LintGo: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Rule))
	}
	want := []string{
		"detpkg/detpkg.go:17 det/wallclock", // value use: Clock = time.Now
		"detpkg/detpkg.go:21 det/wallclock", // time.Now() call
		"detpkg/detpkg.go:21 det/rand",      // rand.Intn on the global source
		"detpkg/detpkg.go:27 det/maprange",  // fmt.Fprintf inside map range
		"detpkg/detpkg.go:35 det/floatsum",  // s += v over float map
		"detpkg/detpkg.go:44 det/maprange",  // out += k string concat
		"detpkg/detpkg.go:51 det/exit",      // os.Exit in library code
		// line 57 time.Now is under //nepvet:allow — absent.
		// svcpkg time.Now is allowlisted — absent.
		// cleanpkg collect-then-sort and int accumulation — absent.
		// cmd/tool is program layer — absent.
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics:\n  got  %v\n  want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	unused := cfg.Allow.Unused()
	if len(unused) != 1 || !strings.Contains(unused[0].Msg, "svcpkg det/exit") {
		t.Errorf("Unused = %v, want the svcpkg det/exit entry", unused)
	}
}

func TestLintGoRejectsProtectedExemption(t *testing.T) {
	cfg := fixtureConfig(t)
	al, err := ParseAllowlist("lint.allow", "detpkg det/wallclock trying to waive the core guarantee\n")
	if err != nil {
		t.Fatalf("ParseAllowlist: %v", err)
	}
	cfg.Allow = al
	if _, err := LintGo(cfg, []string{"detpkg"}); err == nil || !strings.Contains(err.Error(), "cannot exempt") {
		t.Fatalf("LintGo = %v, want cannot-exempt error for deterministic package", err)
	}
}

func TestFindGoPackages(t *testing.T) {
	dirs, err := FindGoPackages("testdata/src")
	if err != nil {
		t.Fatalf("FindGoPackages: %v", err)
	}
	want := []string{"cleanpkg", "cmd/tool", "detpkg", "svcpkg"}
	if len(dirs) != len(want) {
		t.Fatalf("FindGoPackages = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("FindGoPackages = %v, want %v", dirs, want)
		}
	}
}

func TestModulePath(t *testing.T) {
	mod, err := ModulePath("testdata/src")
	if err != nil {
		t.Fatalf("ModulePath: %v", err)
	}
	if mod != "fixture" {
		t.Errorf("ModulePath = %q, want %q", mod, "fixture")
	}
}

// TestDeterministicPackagesExist keeps the protected list honest: a
// deleted or renamed package must not leave a stale entry behind.
func TestDeterministicPackagesExist(t *testing.T) {
	dirs, err := FindGoPackages("../..")
	if err != nil {
		t.Fatalf("FindGoPackages: %v", err)
	}
	have := map[string]bool{}
	for _, d := range dirs {
		have[d] = true
	}
	for _, d := range DeterministicPackages {
		if !have[d] {
			t.Errorf("DeterministicPackages lists %q, which is not a Go package directory", d)
		}
	}
}
