package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseAllowlist(t *testing.T) {
	text := `# header comment

internal/obs det/wallclock progress redraw throttling is wall-clock by design
internal/core det/wallclock the run watchdog measures host time
`
	a, err := ParseAllowlist("lint.allow", text)
	if err != nil {
		t.Fatalf("ParseAllowlist: %v", err)
	}
	ents := a.Entries()
	if len(ents) != 2 {
		t.Fatalf("Entries = %v, want 2", ents)
	}
	if ents[0] != [2]string{"internal/core", "det/wallclock"} ||
		ents[1] != [2]string{"internal/obs", "det/wallclock"} {
		t.Fatalf("Entries not sorted by dir: %v", ents)
	}

	if !a.Allowed("internal/obs", "det/wallclock") {
		t.Error("internal/obs det/wallclock should be allowed")
	}
	if a.Allowed("internal/obs", "det/maprange") {
		t.Error("exemptions must be rule-by-rule, not per package")
	}
	if a.Allowed("internal/sim", "det/wallclock") {
		t.Error("unlisted package should not be allowed")
	}

	// internal/core never matched, so it is the single unused entry.
	unused := a.Unused()
	if len(unused) != 1 {
		t.Fatalf("Unused = %v, want 1 entry", unused)
	}
	d := unused[0]
	if d.Rule != "allow/unused" || d.Line != 4 || !strings.Contains(d.Msg, "internal/core det/wallclock") {
		t.Errorf("unexpected unused diag: %s", d)
	}
}

func TestParseAllowlistErrors(t *testing.T) {
	if _, err := ParseAllowlist("f", "internal/obs det/wallclock"); err == nil {
		t.Error("entry without justification should be rejected")
	}
	dup := "a det/exit x\na det/exit y\n"
	if _, err := ParseAllowlist("f", dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate entry: err = %v, want duplicate error", err)
	}
}

func TestLoadAllowlistMissing(t *testing.T) {
	a, err := LoadAllowlist(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatalf("missing allowlist should be empty, not an error: %v", err)
	}
	if a.Allowed("internal/obs", "det/wallclock") {
		t.Error("empty allowlist allowed something")
	}
	if len(a.Unused()) != 0 {
		t.Error("empty allowlist reported unused entries")
	}
}
