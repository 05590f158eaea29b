package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions are possible.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

var (
	// ErrQueueFull is the backpressure signal: the pending queue is at
	// capacity and the submission was rejected. Callers retry later — the
	// HTTP layer maps this to 503 with a Retry-After.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submissions to a queue that is shutting down.
	ErrClosed = errors.New("jobs: queue closed")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotDone reports an artifact request for an unfinished job.
	ErrNotDone = errors.New("jobs: job not finished")
	// errShutdown is the cancel cause of jobs that Shutdown ends: queued
	// ones, and running ones still unfinished at the drain deadline.
	errShutdown = errors.New("jobs: canceled by shutdown")
)

// Status is the externally visible snapshot of one job.
type Status struct {
	ID          string `json:"id"`
	Key         string `json:"key"`
	Kind        Kind   `json:"kind"`
	State       State  `json:"state"`
	Priority    int    `json:"priority"`
	PointsDone  int    `json:"points_done"`
	PointsTotal int    `json:"points_total"`
	Err         string `json:"err,omitempty"`
	// Retries counts execution attempts beyond the first spent inside the
	// job so far: the per-point retries of a sweep (core.RunWithRetry).
	// Before this field, retry-once outcomes were visible only in sweep
	// failure records.
	Retries int `json:"retries,omitempty"`
	// TraceID is the submitting request's trace ID, when one was attached.
	TraceID string `json:"trace_id,omitempty"`
	// Stage durations, filled as the job progresses (terminal jobs carry
	// all four). All derive from the same monotonic timestamps, so for a
	// terminal job QueueWaitNs + ExecNs + ArtifactWriteNs == WallNs exactly.
	QueueWaitNs     int64 `json:"queue_wait_ns,omitempty"`
	ExecNs          int64 `json:"exec_ns,omitempty"`
	ArtifactWriteNs int64 `json:"artifact_write_ns,omitempty"`
	WallNs          int64 `json:"wall_ns,omitempty"`
}

// job is the queue's internal record.
type job struct {
	id          string
	key         string
	spec        Spec
	seq         uint64
	state       State
	err         string
	pointsDone  int
	pointsTotal int
	retries     int
	artifact    json.RawMessage
	cancel      context.CancelCauseFunc
	done        chan struct{}
	heapIndex   int // position in pending, -1 when not queued

	// Stage timestamps, in submission order: enqueue, worker pickup, executor
	// return, terminal transition. Every derived duration reads these same
	// values, so the stages tile the job's wall time exactly.
	tSubmit  time.Time
	tStart   time.Time
	tExecEnd time.Time
	tFinish  time.Time
}

// stages renders the job's stage durations; zero timestamps (stages not
// reached yet) yield zeros. Callers hold q.mu.
func (j *job) stages() (queueWait, exec, artifact, wall time.Duration) {
	if j.tStart.IsZero() {
		return 0, 0, 0, 0
	}
	queueWait = j.tStart.Sub(j.tSubmit)
	if j.tExecEnd.IsZero() {
		return queueWait, 0, 0, 0
	}
	exec = j.tExecEnd.Sub(j.tStart)
	if j.tFinish.IsZero() {
		return queueWait, exec, 0, 0
	}
	artifact = j.tFinish.Sub(j.tExecEnd)
	wall = j.tFinish.Sub(j.tSubmit)
	return queueWait, exec, artifact, wall
}

// pendingHeap orders queued jobs by (priority desc, submission seq asc).
type pendingHeap []*job

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *pendingHeap) Push(x any) {
	j := x.(*job)
	j.heapIndex = len(*h)
	*h = append(*h, j)
}
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*h = old[:n-1]
	return j
}

// Executor turns a spec into its artifact. progress, when called, reports
// the running count of completed points and of retries (execution attempts
// beyond the first) spent so far. The production executor is Execute;
// tests substitute deterministic stand-ins.
type Executor func(ctx context.Context, spec Spec, progress func(done, retries int)) (any, error)

// Options configures a Queue.
type Options struct {
	// Workers is the pool size; zero or below means runtime.NumCPU().
	Workers int
	// Capacity bounds the pending (not yet running) queue; submissions past
	// it fail with ErrQueueFull. Zero or below means 64.
	Capacity int
	// Registry receives the queue's counters and gauges. Nil means no
	// metrics.
	Registry *obs.Registry
	// Exec overrides the executor; nil means Execute (real simulations).
	Exec Executor
	// Logger receives structured job-lifecycle records (submit, start,
	// terminal transitions), each carrying the job and trace IDs. Nil means
	// silent.
	Logger *slog.Logger
	// Now overrides the stage clock, for deterministic tests. Nil means
	// time.Now.
	Now func() time.Time
	// RunMetrics, when non-nil, is injected into every executed spec's
	// config as both Metrics and WallMetrics, so per-run simulation counters
	// (including the per-formula loc_* assertion metrics and the
	// loc_eval_seconds latency histogram) accumulate on the daemon's
	// /metrics registry. Specs arrive with these fields nil (Validate
	// enforces it); the injection is executor-side only and never affects
	// job identity.
	RunMetrics *obs.Registry
}

// Queue is a bounded priority job queue with a worker pool, singleflight
// dedup on spec content and cancellation. It keeps no state across
// restarts: the run cache does (see Shutdown). All methods are safe for
// concurrent use.
type Queue struct {
	workers  int
	capacity int
	exec     Executor
	log      *slog.Logger
	now      func() time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	submitted *obs.Counter
	deduped   *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	gQueued   *obs.Gauge
	gRunning  *obs.Gauge

	hQueueWait *obs.Histogram
	hExec      *obs.Histogram
	hArtifact  *obs.Histogram

	mu      sync.Mutex
	cond    *sync.Cond
	pending pendingHeap
	byID    map[string]*job
	byKey   map[string]*job // queued or running only: the dedup window
	running int
	closed  bool
	nextSeq uint64
	wg      sync.WaitGroup
}

// New builds a queue and starts its workers.
func New(opts Options) *Queue {
	q := &Queue{
		workers:  core.Parallelism(opts.Workers),
		capacity: opts.Capacity,
		exec:     opts.Exec,
		byID:     make(map[string]*job),
		byKey:    make(map[string]*job),
	}
	if q.capacity <= 0 {
		q.capacity = 64
	}
	if q.exec == nil {
		q.exec = Execute
	}
	if reg := opts.RunMetrics; reg != nil {
		inner := q.exec
		q.exec = func(ctx context.Context, spec Spec, progress func(done, retries int)) (any, error) {
			spec.Config.Metrics = reg
			spec.Config.WallMetrics = reg
			return inner(ctx, spec, progress)
		}
	}
	q.log = opts.Logger
	if q.log == nil {
		q.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	q.now = opts.Now
	if q.now == nil {
		q.now = time.Now
	}
	if r := opts.Registry; r != nil {
		q.submitted = r.Counter("jobs_submitted")
		q.deduped = r.Counter("jobs_deduped")
		q.rejected = r.Counter("jobs_rejected")
		q.completed = r.Counter("jobs_completed")
		q.failed = r.Counter("jobs_failed")
		q.canceled = r.Counter("jobs_canceled")
		q.gQueued = r.Gauge("jobs_queued")
		q.gRunning = r.Gauge("jobs_running")
		// 1 ms .. ~8.7 min in ×2 steps: queue waits and executions span
		// microbenchmark-fast fake executors up to multi-minute sweeps.
		edges := obs.ExponentialEdges(0.001, 2, 20)
		q.hQueueWait = r.Histogram("jobs_stage_queue_wait_seconds", edges)
		q.hExec = r.Histogram("jobs_stage_exec_seconds", edges)
		q.hArtifact = r.Histogram("jobs_stage_artifact_write_seconds", edges)
	}
	q.cond = sync.NewCond(&q.mu)
	q.baseCtx, q.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < q.workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func observe(h *obs.Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// gauges refreshes the queued/running gauges; callers hold q.mu.
func (q *Queue) gauges() {
	if q.gQueued != nil {
		q.gQueued.Set(float64(len(q.pending)))
	}
	if q.gRunning != nil {
		q.gRunning.Set(float64(q.running))
	}
}

// Submit validates and enqueues a spec. When an identical spec (same
// content key) is already queued or running, the submission dedups onto it:
// the existing job's ID is returned with deduped true and no new work is
// created. A full queue rejects with ErrQueueFull.
func (q *Queue) Submit(spec Spec) (id string, deduped bool, err error) {
	if err := spec.Validate(); err != nil {
		return "", false, err
	}
	key, err := spec.Key()
	if err != nil {
		return "", false, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", false, ErrClosed
	}
	if j, ok := q.byKey[key]; ok {
		inc(q.deduped)
		q.log.Info("job deduped", "job", j.id, "trace_id", spec.TraceID, "onto_trace_id", j.spec.TraceID)
		return j.id, true, nil
	}
	if len(q.pending) >= q.capacity {
		inc(q.rejected)
		q.log.Warn("job rejected: queue full", "trace_id", spec.TraceID, "capacity", q.capacity)
		return "", false, ErrQueueFull
	}
	j := q.insertLocked(key, spec)
	inc(q.submitted)
	q.log.Info("job submitted", "job", j.id, "trace_id", spec.TraceID,
		"kind", string(spec.Kind), "priority", spec.Priority, "points", j.pointsTotal)
	return j.id, false, nil
}

// insertLocked creates a job in state queued and pushes it onto the heap.
// The ID joins the submission sequence number and the key's prefix: every
// daemon boot counts from 1 again, so a handle kept across a restart can
// only name a job with the same content, whose artifact is the same bytes.
// Callers hold q.mu.
func (q *Queue) insertLocked(key string, spec Spec) *job {
	q.nextSeq++
	id := fmt.Sprintf("j-%06d-%s", q.nextSeq, key[:8])
	total := 1
	if spec.Kind == KindSweep && spec.Sweep != nil {
		total = spec.Sweep.Points()
	}
	j := &job{
		id:          id,
		key:         key,
		spec:        spec,
		seq:         q.nextSeq,
		state:       StateQueued,
		pointsTotal: total,
		done:        make(chan struct{}),
		heapIndex:   -1,
		tSubmit:     q.now(),
	}
	q.byID[id] = j
	q.byKey[key] = j
	heap.Push(&q.pending, j)
	q.gauges()
	q.cond.Signal()
	return j
}

// Status returns a job's snapshot.
func (q *Queue) Status(id string) (Status, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return q.statusLocked(j), nil
}

func (q *Queue) statusLocked(j *job) Status {
	queueWait, exec, artifact, wall := j.stages()
	return Status{
		ID:              j.id,
		Key:             j.key,
		Kind:            j.spec.Kind,
		State:           j.state,
		Priority:        j.spec.Priority,
		PointsDone:      j.pointsDone,
		PointsTotal:     j.pointsTotal,
		Err:             j.err,
		Retries:         j.retries,
		TraceID:         j.spec.TraceID,
		QueueWaitNs:     queueWait.Nanoseconds(),
		ExecNs:          exec.Nanoseconds(),
		ArtifactWriteNs: artifact.Nanoseconds(),
		WallNs:          wall.Nanoseconds(),
	}
}

// Statuses lists every known job, submission order.
func (q *Queue) Statuses() []Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Status, 0, len(q.byID))
	for _, j := range q.byID {
		out = append(out, q.statusLocked(j))
	}
	// Map order is random; sort by ID (the sequence number leads it,
	// zero-padded, so lexicographic is submission order).
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Artifact returns a finished job's marshaled output. ErrNotDone while the
// job is queued or running; failed and canceled jobs have no artifact.
func (q *Queue) Artifact(id string) (json.RawMessage, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return nil, ErrNotFound
	}
	if !j.state.Terminal() {
		return nil, ErrNotDone
	}
	if j.artifact == nil {
		return nil, fmt.Errorf("jobs: job %s %s: %w", id, j.state, ErrNotDone)
	}
	return j.artifact, nil
}

// Wait blocks until the job reaches a terminal state (returning its final
// status) or ctx is done.
func (q *Queue) Wait(ctx context.Context, id string) (Status, error) {
	q.mu.Lock()
	j, ok := q.byID[id]
	q.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return q.Status(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// Cancel stops a job: a queued job is removed from the heap immediately; a
// running job has its context canceled and reaches StateCanceled when its
// executor unwinds. Canceling a terminal job is a no-op.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		heap.Remove(&q.pending, j.heapIndex)
		q.dropQueuedLocked(j, "canceled before start")
	case StateRunning:
		j.cancel(nil)
	}
	return nil
}

// dropQueuedLocked ends a job already taken off the heap before it ever
// ran. Callers hold q.mu.
func (q *Queue) dropQueuedLocked(j *job, reason string) {
	delete(q.byKey, j.key)
	j.state = StateCanceled
	j.err = reason
	close(j.done)
	inc(q.canceled)
	q.gauges()
}

// finishLocked moves a job that ran to its terminal bookkeeping: the final
// stage timestamp, stage-latency observations, dedup-window removal, waiter
// wakeup and the terminal log record. Callers hold q.mu and have already set
// j.state (and j.err, j.artifact).
func (q *Queue) finishLocked(j *job) {
	j.tFinish = q.now()
	_, exec, artifact, wall := j.stages()
	observe(q.hExec, exec)
	observe(q.hArtifact, artifact)
	delete(q.byKey, j.key)
	close(j.done)
	attrs := []any{"job", j.id, "trace_id", j.spec.TraceID, "state", string(j.state),
		"exec", exec, "artifact_write", artifact, "wall", wall}
	if j.err != "" {
		attrs = append(attrs, "err", j.err)
		q.log.Warn("job finished", attrs...)
		return
	}
	q.log.Info("job finished", attrs...)
}

// worker is the pool loop: pop the highest-priority job, execute, record.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for !q.closed && len(q.pending) == 0 {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		j := heap.Pop(&q.pending).(*job)
		j.state = StateRunning
		j.tStart = q.now()
		// The worker's run context carries the submitting request's trace
		// ID, so everything below — the executor, core.RunContext, a
		// context-aware run cache — can attribute itself to the request.
		ctx, cancel := context.WithCancelCause(obs.WithTraceID(q.baseCtx, j.spec.TraceID))
		j.cancel = cancel
		q.running++
		queueWait := j.tStart.Sub(j.tSubmit)
		observe(q.hQueueWait, queueWait)
		q.log.Info("job started", "job", j.id, "trace_id", j.spec.TraceID,
			"queue_wait", queueWait)
		q.gauges()
		q.mu.Unlock()

		artifact, err := q.exec(ctx, j.spec, func(done, retries int) {
			q.mu.Lock()
			if done > j.pointsDone {
				j.pointsDone = done
			}
			if retries > j.retries {
				j.retries = retries
			}
			q.mu.Unlock()
		})
		execEnd := q.now()

		q.mu.Lock()
		q.running--
		j.tExecEnd = execEnd
		// Cancel and Shutdown cancel under q.mu, so the cause read here is
		// final: nil means the job was not interrupted.
		interrupted := context.Cause(ctx)
		cancel(nil)
		switch {
		case interrupted != nil:
			j.state = StateCanceled
			j.err = interrupted.Error()
			q.finishLocked(j)
			inc(q.canceled)
		case err != nil:
			j.state = StateFailed
			j.err = err.Error()
			q.finishLocked(j)
			inc(q.failed)
		default:
			if b, merr := json.Marshal(artifact); merr != nil {
				j.state = StateFailed
				j.err = fmt.Sprintf("marshal artifact: %v", merr)
				inc(q.failed)
			} else {
				j.artifact = b
				j.state = StateDone
				inc(q.completed)
			}
			q.finishLocked(j)
		}
		q.gauges()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// Shutdown drains, then cancels: no new submissions, no new job starts,
// and in-flight jobs get until ctx expires to finish. Jobs still running at
// the deadline are interrupted and end canceled, as do jobs still queued;
// their error names the shutdown. Nothing is persisted: every point a
// sweep finished is already in the run cache, so resubmitting the same
// spec to the next daemon simulates only the rest. Workers are stopped
// before Shutdown returns. The error is ctx's, when the drain timed out.
func (q *Queue) Shutdown(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()

	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	for q.running > 0 && ctx.Err() == nil {
		q.cond.Wait()
	}
	if q.running > 0 {
		// Deadline hit: interrupt the stragglers.
		for _, j := range q.byID {
			if j.state == StateRunning {
				j.cancel(errShutdown)
			}
		}
		for q.running > 0 {
			q.cond.Wait()
		}
	}
	for len(q.pending) > 0 {
		q.dropQueuedLocked(heap.Pop(&q.pending).(*job), errShutdown.Error())
	}
	q.mu.Unlock()
	q.wg.Wait()
	q.baseCancel()
	return ctx.Err()
}

// Pending returns the number of queued (not running) jobs.
func (q *Queue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Running returns the number of jobs currently executing.
func (q *Queue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}
