package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// failFirst is a RoundTripper whose first n requests fail with a transport
// error before reaching the server; later requests go through. calls counts
// every attempt, failed or not.
type failFirst struct {
	n     int64
	calls atomic.Int64
}

func (f *failFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.calls.Add(1) <= f.n {
		return nil, errors.New("connection reset by peer")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// testClient is a client against url with test-sized delays.
func testClient(url string, budget int) client {
	return client{base: url, budget: budget, baseDelay: time.Millisecond, maxDelay: 10 * time.Millisecond}
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

	status, err := testClient(srv.URL, 3).doJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("doJSON = (%d, %v), want (200, nil)", status, err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hits = %d, want 3 (two Retry-After retries)", hits.Load())
	}

	// With the budget spent on Retry-After answers, the 503 surfaces.
	hits.Store(0)
	status, err = testClient(srv.URL, 2).doJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err == nil || status != http.StatusServiceUnavailable {
		t.Fatalf("doJSON = (%d, %v), want a 503 error once the budget is spent", status, err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d, want 2 (the whole budget)", hits.Load())
	}
}

func TestClientBare503IsDraining(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	_, err := testClient(srv.URL, 5).doJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if !errors.Is(err, errDraining) {
		t.Fatalf("bare 503 returned %v, want errDraining", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("client retried a draining daemon %d times, want a single request", hits.Load())
	}
}

func TestClientRetriesTransientTransportErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	tr := &failFirst{n: 2}
	c := testClient(srv.URL, 3)
	c.http = &http.Client{Transport: tr}
	status, err := c.doJSON(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("doJSON = (%d, %v), want success after transient resets", status, err)
	}
	if tr.calls.Load() != 3 || hits.Load() != 1 {
		t.Fatalf("attempts = %d, server hits = %d; want 3 attempts reaching the server once", tr.calls.Load(), hits.Load())
	}

	// With the budget exhausted the last transport error surfaces.
	tr2 := &failFirst{n: 1 << 30}
	c2 := testClient(srv.URL, 2)
	c2.http = &http.Client{Transport: tr2}
	if _, err := c2.doJSON(context.Background(), http.MethodGet, "/healthz", nil, nil); err == nil {
		t.Fatal("doJSON succeeded through a transport that fails every request")
	}
	if tr2.calls.Load() != 2 || hits.Load() != 1 {
		t.Fatalf("attempts = %d, server hits = %d; want the budget of 2 spent, none reaching the server", tr2.calls.Load(), hits.Load())
	}
}
