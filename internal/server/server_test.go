package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/jobs"
	"nepdvs/internal/obs"
)

// harness wires a server over a queue with a controllable executor.
type harness struct {
	srv     *httptest.Server
	queue   *jobs.Queue
	release chan struct{}
}

func newHarness(t *testing.T, workers, capacity int) *harness {
	t.Helper()
	release := make(chan struct{})
	reg := obs.NewRegistry()
	q := jobs.New(jobs.Options{
		Workers:  workers,
		Capacity: capacity,
		Registry: reg,
		Exec: func(ctx context.Context, spec jobs.Spec, progress func(done, retries int)) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if progress != nil {
				progress(1, 0)
			}
			if spec.Kind == jobs.KindSweep {
				return &jobs.SweepArtifact{Points: []jobs.SweepPoint{{Point: core.Point{ThresholdMbps: 1000}}}}, nil
			}
			return &jobs.RunArtifact{}, nil
		},
	})
	h := &harness{srv: httptest.NewServer(New(Options{Queue: q, Registry: reg})), queue: q, release: release}
	t.Cleanup(func() {
		h.srv.Close()
		select {
		case <-release:
		default:
			close(release)
		}
		q.Shutdown(context.Background())
	})
	return h
}

func (h *harness) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func (h *harness) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(h.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func runBody(n int) RunRequest {
	return RunRequest{Config: core.RunConfig{Cycles: int64(100_000 + n)}}
}

func TestServerSubmitAndFetch(t *testing.T) {
	h := newHarness(t, 1, 8)

	resp, body := h.post(t, "/v1/runs", runBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Deduped {
		t.Fatalf("submit response %+v", sub)
	}

	// Status while running; artifact is 409 until done.
	resp, body = h.get(t, "/v1/jobs/"+sub.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, body)
	}
	resp, _ = h.get(t, "/v1/jobs/"+sub.ID+"/artifacts/result.json")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early artifact: %d, want 409", resp.StatusCode)
	}

	close(h.release)
	if _, err := h.queue.Wait(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	resp, body = h.get(t, "/v1/jobs/"+sub.ID+"/artifacts/result.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: %d %s", resp.StatusCode, body)
	}
	var art jobs.RunArtifact
	if err := json.Unmarshal(body, &art); err != nil {
		t.Fatal(err)
	}

	// Listing includes the job.
	resp, body = h.get(t, "/v1/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), sub.ID) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
}

func TestServerBackpressure503(t *testing.T) {
	h := newHarness(t, 1, 1)

	// Occupy the worker, fill the queue, then overflow.
	resp, body := h.post(t, "/v1/runs", runBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %s", resp.StatusCode, body)
	}
	var first SubmitResponse
	json.Unmarshal(body, &first)
	waitRunning(t, h, first.ID)
	if resp, body = h.post(t, "/v1/runs", runBody(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d %s", resp.StatusCode, body)
	}
	resp, body = h.post(t, "/v1/runs", runBody(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("503 body %q not an error JSON", body)
	}
}

func waitRunning(t *testing.T, h *harness, id string) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		st, err := h.queue.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// 32 concurrent identical submissions through HTTP collapse onto one job —
// the acceptance criterion, exercised at the API layer.
func TestServerConcurrentDedup(t *testing.T) {
	h := newHarness(t, 2, 8)

	const n = 32
	type result struct {
		sub  SubmitResponse
		code int
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := h.post(t, "/v1/sweeps", SweepRequest{
				Config:     core.RunConfig{Cycles: 100_000},
				Thresholds: []float64{1000},
				Windows:    []int64{40000},
			})
			results[i].code = resp.StatusCode
			json.Unmarshal(body, &results[i].sub)
		}()
	}
	wg.Wait()
	close(h.release)

	var created int
	first := results[0].sub.ID
	for i, r := range results {
		if r.code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, r.code)
		}
		if r.sub.ID != first {
			t.Fatalf("submission %d attached to %s, want %s", i, r.sub.ID, first)
		}
		if !r.sub.Deduped {
			created++
		}
	}
	if created != 1 {
		t.Errorf("%d submissions created jobs, want 1", created)
	}
}

func TestServerCancel(t *testing.T) {
	h := newHarness(t, 1, 8)
	_, body := h.post(t, "/v1/runs", runBody(1))
	var gate SubmitResponse
	json.Unmarshal(body, &gate)
	waitRunning(t, h, gate.ID)
	_, body = h.post(t, "/v1/runs", runBody(2))
	var queued SubmitResponse
	json.Unmarshal(body, &queued)

	req, err := http.NewRequest(http.MethodDelete, h.srv.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != jobs.StateCanceled {
		t.Fatalf("after cancel: %s", st.State)
	}
}

func TestServerErrors(t *testing.T) {
	h := newHarness(t, 1, 8)

	// Unknown job.
	resp, _ := h.get(t, "/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d", resp.StatusCode)
	}
	resp, _ = h.get(t, "/v1/jobs/nope/artifacts/result.json")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job artifact: %d", resp.StatusCode)
	}

	// Malformed and invalid bodies.
	r, err := http.Post(h.srv.URL+"/v1/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", r.StatusCode)
	}
	resp, _ = h.post(t, "/v1/sweeps", SweepRequest{Config: core.RunConfig{Cycles: 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep grid: %d", resp.StatusCode)
	}

	// Unknown fields are rejected, not silently dropped.
	r, err = http.Post(h.srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"config":{"Cycles":1},"cyclez":5}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", r.StatusCode)
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	h := newHarness(t, 1, 8)
	resp, body := h.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	h.post(t, "/v1/runs", runBody(1))
	resp, body = h.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "jobs_submitted") {
		t.Errorf("metrics exposition missing jobs_submitted:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
}

func TestServerDrainingReturns503(t *testing.T) {
	release := make(chan struct{})
	close(release)
	q := jobs.New(jobs.Options{Workers: 1, Capacity: 8, Exec: func(ctx context.Context, spec jobs.Spec, _ func(done, retries int)) (any, error) {
		return &jobs.RunArtifact{}, nil
	}})
	srv := httptest.NewServer(New(Options{Queue: q}))
	defer srv.Close()
	q.Shutdown(context.Background())

	b, _ := json.Marshal(runBody(1))
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to drained queue: %d, want 503", resp.StatusCode)
	}
}

func TestServerHealthzQueueDepth(t *testing.T) {
	h := newHarness(t, 1, 8)
	// One job running (executor blocks on release), one queued behind it.
	h.post(t, "/v1/runs", runBody(1))
	h.post(t, "/v1/runs", runBody(2))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.queue.Running() == 1 && h.queue.Pending() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, body := h.get(t, "/healthz")
	var hz struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	if hz.Status != "ok" || hz.Running != 1 || hz.Queued != 1 {
		t.Fatalf("healthz = %+v, want ok/1 running/1 queued", hz)
	}
}
