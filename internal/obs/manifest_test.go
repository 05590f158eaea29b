package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("nepsim", []string{"-bench", "nat", "-seed", "3"})
	m.Seed = 3
	m.Cycles = 8_000_000
	m.Config = map[string]any{"bench": "nat", "cycles": 8000000}
	m.Outputs = []string{"run.trc"}
	snap := Snapshot{Counters: map[string]uint64{"sim_events_dispatched": 12}}
	m.Metrics = &snap
	m.SetWall(1500 * time.Millisecond)

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(readFile(t, path), &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != "nepsim" || got.Seed != 3 || got.Cycles != 8_000_000 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.GoVersion != runtime.Version() {
		t.Errorf("go version = %q", got.GoVersion)
	}
	if got.WallMS != 1500 {
		t.Errorf("wall = %v ms", got.WallMS)
	}
	if got.Metrics == nil || got.Metrics.Counters["sim_events_dispatched"] != 12 {
		t.Errorf("metrics snapshot lost: %+v", got.Metrics)
	}
}

// TestManifestConfigBytesStable checks the acceptance property: two
// manifests built from identical configs have byte-identical config blocks
// even though wall time and other environment facts differ.
func TestManifestConfigBytesStable(t *testing.T) {
	mk := func(wall time.Duration) []byte {
		m := NewManifest("nepsim", []string{"-bench", "nat"})
		m.Config = map[string]any{"bench": "nat", "policy": "tdvs", "window": 40000}
		m.SetWall(wall)
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := m.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		var written struct{ Config json.RawMessage }
		if err := json.Unmarshal(readFile(t, path), &written); err != nil {
			t.Fatal(err)
		}
		return written.Config
	}
	if !bytes.Equal(mk(time.Second), mk(3*time.Second)) {
		t.Error("config blocks differ across invocations")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
