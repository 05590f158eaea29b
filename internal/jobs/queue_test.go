package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
)

// specN builds distinct valid run specs (distinct cycle counts → distinct
// content keys).
func specN(n int) Spec {
	return Spec{Kind: KindRun, Config: core.RunConfig{Cycles: int64(100_000 + n)}}
}

// blockingExec returns an executor that parks every job until release is
// closed (or its context is canceled), recording execution order.
func blockingExec() (exec Executor, release chan struct{}, order *[]int64) {
	release = make(chan struct{})
	var mu sync.Mutex
	var seen []int64
	order = &seen
	exec = func(ctx context.Context, spec Spec, progress func(done, retries int)) (any, error) {
		mu.Lock()
		seen = append(seen, spec.Config.Cycles)
		mu.Unlock()
		select {
		case <-release:
			if progress != nil {
				progress(1, 0)
			}
			return &RunArtifact{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return exec, release, order
}

func TestQueueBackpressure(t *testing.T) {
	exec, release, _ := blockingExec()
	q := New(Options{Workers: 1, Capacity: 1, Exec: exec})
	defer func() {
		close(release)
		q.Shutdown(context.Background())
	}()

	// First job occupies the worker; second fills the queue; third bounces.
	id1, _, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id1, StateRunning)
	if _, _, err := q.Submit(specN(2)); err != nil {
		t.Fatal(err)
	}
	_, _, err = q.Submit(specN(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
}

func waitState(t *testing.T, q *Queue, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := q.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := q.Status(id)
	t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
}

// 32 concurrent submissions of the same spec must collapse onto one job and
// one execution — the service-level dedup acceptance criterion.
func TestQueueDedup(t *testing.T) {
	var execs int
	var mu sync.Mutex
	block := make(chan struct{})
	q := New(Options{Workers: 2, Capacity: 8, Exec: func(ctx context.Context, spec Spec, _ func(done, retries int)) (any, error) {
		mu.Lock()
		execs++
		mu.Unlock()
		<-block
		return &RunArtifact{}, nil
	}})
	defer q.Shutdown(context.Background())

	const n = 32
	ids := make([]string, n)
	dedups := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, dd, err := q.Submit(specN(0))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i], dedups[i] = id, dd
		}()
	}
	wg.Wait()
	close(block)

	first := ids[0]
	var fresh int
	for i := 0; i < n; i++ {
		if ids[i] != first {
			t.Fatalf("submission %d got job %s, want %s", i, ids[i], first)
		}
		if !dedups[i] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d submissions created jobs, want exactly 1", fresh)
	}
	if _, err := q.Wait(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Errorf("executor ran %d times, want 1", execs)
	}
}

func TestQueueCancel(t *testing.T) {
	exec, release, _ := blockingExec()
	q := New(Options{Workers: 1, Capacity: 8, Exec: exec})
	defer func() {
		close(release)
		q.Shutdown(context.Background())
	}()

	running, _, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running, StateRunning)
	queued, _, err := q.Submit(specN(2))
	if err != nil {
		t.Fatal(err)
	}

	// Canceling a queued job is immediate.
	if err := q.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st, err := q.Status(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if _, err := q.Artifact(queued); err == nil {
		t.Error("canceled job served an artifact")
	}

	// Canceling a running job interrupts its context.
	if err := q.Cancel(running); err != nil {
		t.Fatal(err)
	}
	fin, err := q.Wait(context.Background(), running)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled {
		t.Fatalf("running job after cancel: %s", fin.State)
	}

	// A canceled key leaves the dedup window: resubmitting creates new work.
	id2, dd, err := q.Submit(specN(2))
	if err != nil {
		t.Fatal(err)
	}
	if dd || id2 == queued {
		t.Errorf("resubmit after cancel deduped onto the dead job (id %s, deduped %v)", id2, dd)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	exec, release, order := blockingExec()
	q := New(Options{Workers: 1, Capacity: 8, Exec: exec})

	// Occupy the worker so subsequent submissions queue up.
	gate, _, err := q.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, gate, StateRunning)

	low := specN(1)
	high := specN(2)
	high.Priority = 10
	mid := specN(3)
	mid.Priority = 5
	var ids []string
	for _, s := range []Spec{low, high, mid} {
		id, _, err := q.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	close(release)
	for _, id := range ids {
		if _, err := q.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	q.Shutdown(context.Background())

	got := *order
	want := []int64{100_000, 100_002, 100_003, 100_001} // gate, high, mid, low
	if len(got) != len(want) {
		t.Fatalf("executed %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestQueueProgressAndArtifact(t *testing.T) {
	q := New(Options{Workers: 1, Capacity: 8, Exec: func(ctx context.Context, spec Spec, progress func(done, retries int)) (any, error) {
		for i := 1; i <= spec.Sweep.Points(); i++ {
			progress(i, 0)
		}
		return &SweepArtifact{Points: []SweepPoint{{Point: core.Point{ThresholdMbps: 1}}}}, nil
	}})
	defer q.Shutdown(context.Background())

	spec := Spec{
		Kind:   KindSweep,
		Config: core.RunConfig{Cycles: 1},
		Sweep:  &SweepSpec{Thresholds: []float64{1, 2}, Windows: []int64{10, 20, 30}},
	}
	id, _, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := q.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.PointsDone != 6 || st.PointsTotal != 6 {
		t.Fatalf("final status %+v, want done 6/6", st)
	}
	raw, err := q.Artifact(id)
	if err != nil {
		t.Fatal(err)
	}
	var art SweepArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Points) != 1 || art.Points[0].Point.ThresholdMbps != 1 {
		t.Fatalf("artifact %+v", art)
	}
}

// Shutdown must return interrupted in-flight jobs to the pending queue, and
// Checkpoint/Restore must round-trip them with IDs intact.
func TestQueueCheckpointResume(t *testing.T) {
	exec, release, _ := blockingExec()
	q := New(Options{Workers: 1, Capacity: 8, Exec: exec})

	inflight, _, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, inflight, StateRunning)
	var pendingIDs []string
	for i := 2; i <= 4; i++ {
		id, _, err := q.Submit(specN(i))
		if err != nil {
			t.Fatal(err)
		}
		pendingIDs = append(pendingIDs, id)
	}

	// Drain with an immediate deadline: the in-flight job is interrupted
	// and requeued rather than lost.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	close(release)
	if n := q.Pending(); n != 4 {
		t.Fatalf("pending after drain = %d, want 4 (3 queued + 1 requeued)", n)
	}

	path := filepath.Join(t.TempDir(), "queue.json")
	if err := q.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	// A fresh queue resumes the work under the same IDs.
	done := make(chan string, 8)
	q2 := New(Options{Workers: 2, Capacity: 8, Exec: func(ctx context.Context, spec Spec, _ func(done, retries int)) (any, error) {
		done <- fmt.Sprint(spec.Config.Cycles)
		return &RunArtifact{}, nil
	}})
	n, err := q2.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("restored %d jobs, want 4", n)
	}
	for _, id := range append([]string{inflight}, pendingIDs...) {
		st, err := q2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s not restored: %v", id, err)
		}
		if st.State != StateDone {
			t.Errorf("restored job %s finished %s", id, st.State)
		}
	}
	q2.Shutdown(context.Background())

	// A second restore into the same queue dedups everything. Dedup holds
	// for queued or running jobs only, so q3's executor blocks until the
	// assertion is made: no restored job can finish (and leave the dedup
	// index) before the second Restore.
	exec3, release3, _ := blockingExec()
	q3 := New(Options{Workers: 1, Capacity: 8, Exec: exec3})
	if _, err := q3.Restore(path); err != nil {
		t.Fatal(err)
	}
	n, err = q3.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("double restore added %d jobs", n)
	}
	close(release3)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	q3.Shutdown(ctx2)
}

func TestQueueMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	exec, release, _ := blockingExec()
	q := New(Options{Workers: 1, Capacity: 1, Registry: reg, Exec: exec})

	id1, _, _ := q.Submit(specN(1))
	waitState(t, q, id1, StateRunning)
	q.Submit(specN(2)) // queued
	q.Submit(specN(2)) // deduped
	q.Submit(specN(3)) // rejected: full
	close(release)
	q.Wait(context.Background(), id1)
	q.Shutdown(context.Background())

	c := reg.Snapshot().Counters
	for name, want := range map[string]uint64{
		"jobs_submitted": 2,
		"jobs_deduped":   1,
		"jobs_rejected":  1,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
	if c["jobs_completed"] < 1 {
		t.Errorf("jobs_completed = %d, want >= 1", c["jobs_completed"])
	}
}

func TestSpecValidateAndKey(t *testing.T) {
	good := specN(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	k1, err := good.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Priority is scheduling, not identity.
	urgent := good
	urgent.Priority = 99
	k2, err := urgent.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("priority changed the spec key")
	}
	if k3, _ := specN(2).Key(); k3 == k1 {
		t.Error("distinct configs share a key")
	}
	// A sweep's parallelism is scheduling too: its artifact is the same
	// bytes at any parallelism. The grid itself is identity.
	sweepSpec := func(par int, windows ...int64) Spec {
		return Spec{Kind: KindSweep, Config: good.Config,
			Sweep: &SweepSpec{Thresholds: []float64{800}, Windows: windows, Parallelism: par}}
	}
	ks, err := sweepSpec(0, 40000).Key()
	if err != nil {
		t.Fatal(err)
	}
	par := sweepSpec(4, 40000)
	if kp, _ := par.Key(); kp != ks {
		t.Error("sweep parallelism changed the spec key")
	}
	if par.Sweep.Parallelism != 4 {
		t.Error("Key modified the spec's sweep grid")
	}
	if kw, _ := sweepSpec(4, 20000).Key(); kw == ks {
		t.Error("distinct sweep grids share a key")
	}

	bad := []Spec{
		{Kind: "nope", Config: core.RunConfig{}},
		{Kind: KindRun, Sweep: &SweepSpec{Thresholds: []float64{1}, Windows: []int64{1}}},
		{Kind: KindSweep},
		{Kind: KindSweep, Sweep: &SweepSpec{}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}
