package main

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nepdvs/internal/cache"
	"nepdvs/internal/experiments"
	"nepdvs/internal/obs"
)

// TestProgressCountsCacheHits: a plan served wholly from the cache
// simulates nothing, yet its progress line still reaches N/N.
func TestProgressCountsCacheHits(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.NewPlan([]string{"fig10"})
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Options{Cycles: 120_000, Parallelism: 2, Seed: 1}
	execute := func(prog *obs.Progress) int64 {
		t.Helper()
		o := o
		o.Cache = progressCache{store, prog}
		// The hook fires from concurrent run workers.
		var runs atomic.Int64
		remove := experiments.ObserveRuns(nil, func(_ time.Duration, failed bool) {
			runs.Add(1)
			prog.RunDone(failed)
		})
		defer remove()
		if _, errs := plan.Execute(o); len(errs) > 0 {
			t.Fatal(errs)
		}
		return runs.Load()
	}
	n := plan.PlannedRuns(o)
	if runs := execute(obs.NewProgress(&bytes.Buffer{}, "runs", n, true)); runs != int64(n) {
		t.Fatalf("first execution simulated %d runs, want %d", runs, n)
	}

	var line bytes.Buffer
	prog := obs.NewProgress(&line, "runs", n, true)
	if runs := execute(prog); runs != 0 {
		t.Errorf("cached execution simulated %d runs", runs)
	}
	prog.Finish()
	if want := "runs 5/5 (100%)"; n != 5 || !strings.Contains(line.String(), want) {
		t.Errorf("progress output %q for %d planned runs, want it to reach %q", line.String(), n, want)
	}
}
