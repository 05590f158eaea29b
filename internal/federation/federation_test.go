package federation

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/fault"
	"nepdvs/internal/jobs"
	"nepdvs/internal/obs"
	"nepdvs/internal/server"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func testConfig(t *testing.T) core.RunConfig {
	t.Helper()
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 200_000
	cfg.Policy = core.TDVSPolicy(1000, 40000)
	cfg.Formulas = core.PowerFormula(20, 0.5, 2.25, 0.05)
	return cfg
}

// node is one in-process dvsd: a real queue behind a real server.
type node struct {
	name string
	srv  *httptest.Server
	q    *jobs.Queue
}

func (n *node) host() string { return n.srv.Listener.Addr().String() }

func (n *node) member() Member { return Member{Name: n.name, URL: n.srv.URL} }

func startNode(t *testing.T, name string) *node {
	t.Helper()
	q := jobs.New(jobs.Options{Workers: 2, Capacity: 32, Exec: jobs.Execute})
	srv := httptest.NewServer(server.New(server.Options{Queue: q}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	return &node{name: name, srv: srv, q: q}
}

// poolOptions are fast-failing settings for tests.
func poolOptions(members []Member, httpc *http.Client, reg *obs.Registry) Options {
	return Options{
		Members:        members,
		HTTP:           httpc,
		Registry:       reg,
		FailThreshold:  2,
		RequestTimeout: 10 * time.Second,
		PointTimeout:   60 * time.Second,
		RetryBudget:    2,
		PollInterval:   5 * time.Millisecond,
	}
}

func marshalSweep(t *testing.T, results []core.SweepResult) []byte {
	t.Helper()
	b, err := json.Marshal(jobs.NewSweepArtifact(results))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFederatedSweepByteIdentityUnderNodeDeath is the headline contract: a
// 3-node cluster where one node's network dies mid-sweep (a deterministic
// fault plan drops everything to it after its first two requests) produces
// a sweep artifact byte-identical to a single-node local run, with the
// dead node demoted and its points stolen.
func TestFederatedSweepByteIdentityUnderNodeDeath(t *testing.T) {
	base := testConfig(t)
	thresholds := []float64{800, 1600, 2400}
	windows := []int64{20000, 40000}

	ref, err := core.SweepTDVS(base, thresholds, windows, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalSweep(t, ref)

	n1, n2, n3 := startNode(t, "n1"), startNode(t, "n2"), startNode(t, "n3")
	// n2's network dies after its first two requests: everything later —
	// polls, fetches, new submissions — drops on the floor.
	plan := &fault.NetPlan{Faults: []fault.NetFault{
		{Op: fault.OpDrop, Host: n2.host(), Skip: 2},
	}}
	tr, err := fault.NewTransport(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool, err := New(poolOptions(
		[]Member{n1.member(), n2.member(), n3.member()},
		&http.Client{Transport: tr}, reg))
	if err != nil {
		t.Fatal(err)
	}

	got, err := pool.Sweep(context.Background(), base, thresholds, windows, nil)
	if err != nil {
		t.Fatalf("federated sweep failed: %v", err)
	}
	if string(marshalSweep(t, got)) != string(want) {
		t.Fatal("federated artifact differs from single-node artifact")
	}
	if tr.TotalFired() == 0 {
		t.Fatal("fault plan never fired; the test exercised nothing")
	}
	c := reg.Snapshot().Counters
	if c["fed_steals_total"] == 0 {
		t.Error("no steals recorded despite a dead node")
	}
	if st, _ := pool.MemberState("n2"); st == StateUp {
		t.Errorf("dead node still Up (state %s)", st)
	}
	for _, alive := range []string{"n1", "n3"} {
		if st, _ := pool.MemberState(alive); st != StateUp {
			t.Errorf("survivor %s in state %s, want up", alive, st)
		}
	}
}

// TestAllPeersDownDegradesToLocal: when every remote member is
// unreachable the pool must still finish the sweep by running points
// locally — a cluster of one is the floor, not an error.
func TestAllPeersDownDegradesToLocal(t *testing.T) {
	base := testConfig(t)
	thresholds := []float64{800, 1600}
	windows := []int64{40000}

	ref, err := core.SweepTDVS(base, thresholds, windows, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Ports that nothing listens on: connection refused, fast.
	members := []Member{
		{Name: "ghost1", URL: "http://127.0.0.1:1"},
		{Name: "ghost2", URL: "http://127.0.0.1:2"},
	}
	reg := obs.NewRegistry()
	opts := poolOptions(members, nil, reg)
	opts.FailThreshold = 1
	opts.RetryBudget = 1
	pool, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Sweep(context.Background(), base, thresholds, windows, nil)
	if err != nil {
		t.Fatalf("sweep with all peers down failed: %v", err)
	}
	if string(marshalSweep(t, got)) != string(marshalSweep(t, ref)) {
		t.Fatal("degraded artifact differs from local artifact")
	}
	for _, m := range members {
		if st, _ := pool.MemberState(m.Name); st != StateDown {
			t.Errorf("unreachable member %s in state %s, want down", m.Name, st)
		}
	}
}

// TestPeerCacheConsulted: a point whose exact run key is already in a
// member's cache is served from there — no simulation anywhere.
func TestPeerCacheConsulted(t *testing.T) {
	base := testConfig(t)
	pt := core.Point{ThresholdMbps: 800, WindowCycles: 40000}
	key, err := core.RunKey(core.TDVSPointConfig(base, pt))
	if err != nil {
		t.Fatal(err)
	}
	// A sentinel result no real simulation would produce.
	payload, err := json.Marshal(core.CachedRun{Result: &core.RunResult{MonitorFraction: 0.123456}})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Options{Workers: 1, Capacity: 4, Exec: func(ctx context.Context, spec jobs.Spec, _ func(done, retries int)) (any, error) {
		t.Error("cache hit must not reach the executor")
		return nil, errors.New("unreachable")
	}})
	srv := httptest.NewServer(server.New(server.Options{Queue: q, Cache: stubCache{key: payload}}))
	defer srv.Close()
	defer q.Shutdown(context.Background())

	reg := obs.NewRegistry()
	pool, err := New(poolOptions([]Member{{Name: "c1", URL: srv.URL}}, nil, reg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Sweep(context.Background(), base, []float64{pt.ThresholdMbps}, []int64{pt.WindowCycles}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Result == nil || got[0].Result.MonitorFraction != 0.123456 {
		t.Fatalf("point not served from peer cache: %+v", got[0].Result)
	}
	if c := reg.Snapshot().Counters; c["fed_cache_hits_total"] != 1 {
		t.Errorf("fed_cache_hits_total = %d, want 1", c["fed_cache_hits_total"])
	}
}

type stubCache map[string][]byte

func (s stubCache) Payload(key string) (json.RawMessage, bool) {
	b, ok := s[key]
	return b, ok
}

// TestDrainingNodeIsRoutedAround: a member answering 503 without
// Retry-After (the dvsd drain signal) gets no new work — the pool records
// the drain as its own state, steals the point, and (with no one else to
// take it) finishes locally.
func TestDrainingNodeIsRoutedAround(t *testing.T) {
	var hits atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer draining.Close()

	base := testConfig(t)
	reg := obs.NewRegistry()
	pool, err := New(poolOptions(
		[]Member{{Name: "drain", URL: draining.URL}}, nil, reg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Sweep(context.Background(), base, []float64{800}, []int64{40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Result == nil {
		t.Fatalf("point failed: %v", got[0].Err)
	}
	if hits.Load() != 1 {
		t.Errorf("draining node was called %d times, want exactly 1 (no retries, no new work)", hits.Load())
	}
	if st, _ := pool.MemberState("drain"); st != StateDraining {
		t.Errorf("drain member state %s, want draining", st)
	}
	if c := reg.Snapshot().Counters; c["fed_steals_total"] != 1 {
		t.Errorf("fed_steals_total = %d, want 1", c["fed_steals_total"])
	}
}

// TestExecutorMatchesLocalExecute drives the same sweep specs through the
// plain local executor and the federated one (2-node cluster) and
// compares the stored artifacts byte for byte — the queue-level identity
// the cluster smoke test asserts end to end. The second spec injects a
// panic into one grid point, pinning that a failed point's error string
// reads the same whichever executor ran it.
func TestExecutorMatchesLocalExecute(t *testing.T) {
	base := testConfig(t)
	grid := &jobs.SweepSpec{Thresholds: []float64{800, 1600}, Windows: []int64{40000}}
	faulted := base
	faulted.FaultPlan = &fault.Plan{Seed: 1, Faults: []fault.Fault{{
		Kind: fault.KindPanic, OnsetCycle: 20_000,
		Only: fault.Scope{ThresholdMbps: 1600, WindowCycles: 40000},
	}}}
	specs := []jobs.Spec{
		{Kind: jobs.KindSweep, Config: base, Sweep: grid},
		{Kind: jobs.KindSweep, Config: faulted, Sweep: grid},
	}

	n1, n2 := startNode(t, "w1"), startNode(t, "w2")
	pool, err := New(poolOptions([]Member{n1.member(), n2.member()}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		local, err := jobs.Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(local)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := Executor(pool)(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(fed)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("spec %d: federated executor artifact differs from local Execute", i)
		}
		if i == 1 {
			p := fed.(*jobs.SweepArtifact).Points
			if p[0].Err != "" || !strings.HasPrefix(p[1].Err, "core: point {ThresholdMbps:1600 WindowCycles:40000}: core: run panicked") {
				t.Fatalf("faulted sweep errs = %q, %q; want only point 2 failed with a panic", p[0].Err, p[1].Err)
			}
		}
	}

	// A run spec bypasses federation entirely.
	runSpec := jobs.Spec{Kind: jobs.KindRun, Config: base}
	localRunArt, err := jobs.Execute(context.Background(), runSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	fedRunArt, err := Executor(pool)(context.Background(), runSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(localRunArt)
	fb, _ := json.Marshal(fedRunArt)
	if string(lb) != string(fb) {
		t.Fatal("run artifact differs between executors")
	}
}

func TestClientRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	var retried atomic.Int64
	c := &Client{Base: srv.URL, Budget: 3, BaseDelay: time.Millisecond,
		MaxDelay: 10 * time.Millisecond, OnRetry: func() { retried.Add(1) }}
	status, err := c.DoJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("DoJSON = (%d, %v), want (200, nil)", status, err)
	}
	if hits.Load() != 3 || retried.Load() != 2 {
		t.Fatalf("hits=%d retries=%d, want 3 hits over 2 retries", hits.Load(), retried.Load())
	}
}

func TestClientBare503IsDraining(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Budget: 5, BaseDelay: time.Millisecond}
	_, err := c.DoJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("bare 503 returned %v, want ErrDraining", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("client retried a draining node %d times, want a single request", hits.Load())
	}
}

func TestClientRetriesTransientTransportErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	plan := &fault.NetPlan{Faults: []fault.NetFault{{Op: fault.OpReset, Count: 2}}}
	tr, err := fault.NewTransport(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}, Budget: 3,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	status, err := c.DoJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("DoJSON = (%d, %v), want success after transient resets", status, err)
	}

	// With the budget exhausted the last transport error surfaces.
	plan2 := &fault.NetPlan{Faults: []fault.NetFault{{Op: fault.OpDrop}}}
	tr2, err := fault.NewTransport(plan2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr2}, Budget: 2,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	if _, err := c2.DoJSON(context.Background(), http.MethodGet, "/healthz", nil, nil); err == nil {
		t.Fatal("DoJSON succeeded through a fully dropped transport")
	}
}

func TestRendezvousStability(t *testing.T) {
	members := []Member{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}}
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = core.PowerFormula(i, 0, 1, 0.1) // arbitrary distinct strings
	}
	// Removing one member must only move that member's keys.
	survivors := []Member{members[0], members[2]}
	moved := 0
	for _, k := range keys {
		before := rank(k, members)[0]
		after := rank(k, survivors)[0]
		if before.Name == "n2" {
			moved++
			continue
		}
		if before.Name != after.Name {
			t.Fatalf("key %q moved from %s to %s though %s is alive", k, before.Name, after.Name, before.Name)
		}
	}
	if moved == 0 {
		t.Fatal("no key ranked n2 first; test exercised nothing")
	}
	// And ranking is deterministic.
	for _, k := range keys {
		a, b := rank(k, members), rank(k, members)
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Fatal("rank is not deterministic")
			}
		}
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("n1=http://a:1, n2=b:2 ,local, c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "n1", URL: "http://a:1"},
		{Name: "n2", URL: "http://b:2"},
		{Name: "local", URL: ""},
		{Name: "c:3", URL: "http://c:3"},
	}
	if len(ms) != len(want) {
		t.Fatalf("parsed %d members, want %d: %+v", len(ms), len(want), ms)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("member %d = %+v, want %+v", i, ms[i], want[i])
		}
	}
	if _, err := ParseMembers("n1=a,n1=b"); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := ParseMembers(""); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := New(Options{Members: []Member{{Name: "a"}, {Name: "b"}}}); err == nil {
		t.Error("two local members accepted")
	}
}
