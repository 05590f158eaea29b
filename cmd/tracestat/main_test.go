package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nepdvs/internal/trace"
)

// runCaptured runs tracestat and returns what it printed.
func runCaptured(t *testing.T, jsonOut bool, timeline string, args ...string) []byte {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(jsonOut, timeline, args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// toNPT1 re-encodes a text trace as NPT1.
func toNPT1(t *testing.T, textPath, dst string) {
	t.Helper()
	in, err := os.Open(textPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	f, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewBinaryWriter(f)
	src := trace.NewTextReader(in)
	for {
		ev, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := w.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The timeline export buffers every event of the trace before converting
// it. Readers lend each event's Extra map only until the next read, so a
// buffer that kept the events themselves would give every instrs= and
// idle_frac= instant the extras of the last event read. The goldens pin the
// Chrome JSON and both summaries, from text and from NPT1.
func TestTimelineExtrasGolden(t *testing.T) {
	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	npt := filepath.Join(dir, "extras.npt")
	toNPT1(t, filepath.Join("testdata", "extras.trace"), npt)
	for _, path := range []string{filepath.Join("testdata", "extras.trace"), npt} {
		timeline := filepath.Join(dir, "timeline.json")
		if got, want := runCaptured(t, false, timeline, path), golden("extras.summary.txt"); !bytes.Equal(got, want) {
			t.Errorf("%s: summary\n%s\nwant\n%s", path, got, want)
		}
		got, err := os.ReadFile(timeline)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden("extras.timeline.json")) {
			t.Errorf("%s: timeline differs from testdata/extras.timeline.json", path)
		}
		if got, want := runCaptured(t, true, "", path), golden("extras.summary.json"); !bytes.Equal(got, want) {
			t.Errorf("%s: -json summary\n%s\nwant\n%s", path, got, want)
		}
	}
}
