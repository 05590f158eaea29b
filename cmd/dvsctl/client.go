package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"nepdvs/internal/server"
)

// errDraining reports a 503 without a Retry-After header — the dvsd drain
// signal. The daemon is shutting down deliberately; retrying it is wasted
// work, so the client returns immediately.
var errDraining = errors.New("daemon is draining")

// client issues JSON requests against one daemon with retries: every call
// carries the invocation's X-Request-ID, gets capped exponential backoff
// with deterministic jitter, and spends at most budget attempts.
type client struct {
	// base is the daemon's URL prefix, e.g. "http://127.0.0.1:8377".
	base      string
	requestID string
	// http is the underlying transport; nil uses http.DefaultClient.
	http *http.Client
	// budget is the total attempts one call may spend (first try
	// included).
	budget int
	// baseDelay seeds the exponential backoff; maxDelay caps each backoff
	// step and any Retry-After honor.
	baseDelay, maxDelay time.Duration
}

// newClient returns dvsctl's client for the daemon at base: four attempts,
// backoff from 100ms capped at 2s.
func newClient(base, requestID string) client {
	return client{base: base, requestID: requestID, budget: 4, baseDelay: 100 * time.Millisecond, maxDelay: 2 * time.Second}
}

// retryable classifies a transport error: everything transient retries,
// but a canceled or deadline-expired context means the caller asked the
// call to stop.
func retryable(ctx context.Context, err error) bool {
	return ctx.Err() == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// backoff computes the delay before attempt n (1-based: the delay after
// the n-th failure), exponential from baseDelay and capped at maxDelay,
// with ±50% deterministic jitter drawn from a hash of the call identity —
// no RNG, so retry schedules are reproducible and lint-clean, yet two
// clients hammering one daemon still spread out.
func (c client) backoff(path string, attempt int) time.Duration {
	d := c.baseDelay << (attempt - 1)
	if d > c.maxDelay || d <= 0 {
		d = c.maxDelay
	}
	// Jitter in [0.5, 1.0]× the step.
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d", c.base, path, attempt)))
	frac := float64(binary.BigEndian.Uint32(sum[:4])) / float64(math.MaxUint32)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// sleepCtx waits d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doJSON issues one JSON request with the client's retry policy and
// decodes a 2xx answer into out (when non-nil; a *[]byte receives the raw
// body). The returned status is the final HTTP status (0 when no attempt
// got an answer).
//
// Retry policy, per attempt:
//   - transport error: retry with backoff while budget and context allow;
//   - 503 with Retry-After: honor the header (capped at maxDelay), retry;
//   - 503 without Retry-After: return errDraining immediately;
//   - any other status: final — 2xx decodes, the rest becomes an error
//     carrying the server's error message.
func (c client) doJSON(ctx context.Context, method, path string, body, out any) (int, error) {
	httpc := c.http
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("encode %s %s: %w", method, path, err)
		}
		payload = b
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.requestID != "" {
			req.Header.Set(server.RequestIDHeader, c.requestID)
		}
		resp, err := httpc.Do(req)
		if err != nil {
			lastErr = err
			if !retryable(ctx, err) || attempt >= c.budget {
				return 0, fmt.Errorf("%s %s%s: %w", method, c.base, path, err)
			}
			if serr := sleepCtx(ctx, c.backoff(path, attempt)); serr != nil {
				return 0, fmt.Errorf("%s %s%s: %w", method, c.base, path, lastErr)
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			ra := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if ra == "" {
				return resp.StatusCode, errDraining
			}
			if attempt >= c.budget {
				return resp.StatusCode, fmt.Errorf("http %d: service unavailable after %d attempts", resp.StatusCode, attempt)
			}
			if serr := sleepCtx(ctx, c.retryAfterDelay(ra)); serr != nil {
				return resp.StatusCode, serr
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			var e struct {
				Error string `json:"error"`
			}
			msg := resp.Status
			if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
				msg = e.Error
			}
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, fmt.Errorf("http %d: %s", resp.StatusCode, msg)
		}
		switch dst := out.(type) {
		case nil:
			io.Copy(io.Discard, resp.Body)
		case *[]byte:
			// Raw mode, for non-JSON bodies (metrics) and artifact
			// downloads that must stay byte-exact.
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				return resp.StatusCode, fmt.Errorf("read %s %s: %w", method, path, err)
			}
			*dst = raw
		default:
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
			}
		}
		return resp.StatusCode, nil
	}
}

// retryAfterDelay parses a Retry-After value in seconds, capped at
// maxDelay. Unparseable values fall back to one maxDelay step.
func (c client) retryAfterDelay(ra string) time.Duration {
	sec, err := strconv.Atoi(ra)
	if err != nil || sec < 0 {
		return c.maxDelay
	}
	if d := time.Duration(sec) * time.Second; d < c.maxDelay {
		return d
	}
	return c.maxDelay
}

// do performs a request with retries and decodes the response: into out on
// 2xx, into the server's error envelope otherwise.
func (c client) do(method, path string, body, out any) error {
	_, err := c.doJSON(context.Background(), method, path, body, out)
	if errors.Is(err, errDraining) {
		return fmt.Errorf("daemon at %s is shutting down; retry after it restarts", c.base)
	}
	return err
}
