package federation

// The federated sweep scheduler. Each grid point is content-addressed
// (core.RunKey of its exact per-point config), ranked onto the cluster by
// rendezvous hashing, and pushed through a per-point pipeline: consult
// the assigned node's run cache, submit the run, poll with a straggler
// budget, fetch the artifact. Any failure along the way steals the point
// to the next-ranked survivor; when every member is exhausted the point
// runs locally. The grid, the point configs, the result order and the
// failure summary are core.Sweep's own, so marshaling the results through
// jobs.NewSweepArtifact yields bytes identical to a single-node run.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"nepdvs/internal/core"
	"nepdvs/internal/jobs"
	"nepdvs/internal/server"
)

// Sweep runs the TDVS grid across the pool: core.Sweep with runPoint as
// the point runner, so results come back in the canonical threshold-major
// order with core's partial-failure contract. onPoint, when non-nil,
// observes each finished point from scheduler goroutines.
func (p *Pool) Sweep(ctx context.Context, base core.RunConfig, thresholds []float64, windows []int64, onPoint func(core.SweepResult)) ([]core.SweepResult, error) {
	return core.Sweep(ctx, base, thresholds, windows, p.parallelism, p.runPoint, onPoint)
}

// runPoint is the pool's core.PointRunner: it places one point's config on
// the fabric — candidates in rendezvous order, steal on any non-terminal
// failure, local execution (core.RunWithRetry) as the floor. Each steal
// counts as a retry.
func (p *Pool) runPoint(ctx context.Context, cfg core.RunConfig) (*core.RunResult, int, error) {
	retries := 0
	key, kerr := core.RunKey(cfg)
	if kerr == nil {
		for _, m := range p.candidates(key) {
			if ctx.Err() != nil {
				return nil, retries, ctx.Err()
			}
			if m.Local() {
				res, r, err := core.RunWithRetry(ctx, cfg)
				return res, retries + r, err
			}
			res, terminal, err := p.runRemote(ctx, m, cfg, key)
			if err == nil || terminal {
				// A terminal error means the node is fine and the run
				// itself failed: stealing a deterministic failure just
				// fails it again elsewhere.
				return res, retries, err
			}
			retries++
			if p.steals != nil {
				p.steals.Inc()
			}
			p.log.Info("point stolen", "member", m.Name, "key", key[:12],
				"threshold", cfg.Policy.Param("top_threshold_mbps"),
				"window", cfg.Policy.Param("window_cycles"), "err", err)
		}
	}
	// Graceful degradation: no member could take the point (all down, all
	// draining and failing, or the key itself would not derive). A cluster
	// of one is the floor.
	res, r, err := core.RunWithRetry(ctx, cfg)
	return res, retries + r, err
}

// runRemote executes one point on one remote member. The terminal return
// distinguishes "the run failed" (true: record the error, do not steal)
// from "the node failed" (false: steal to the next candidate).
func (p *Pool) runRemote(ctx context.Context, m Member, cfg core.RunConfig, key string) (res *core.RunResult, terminal bool, err error) {
	c := p.client(m)

	// 1. Peer cache: if the member already holds this exact run, no
	// simulation happens anywhere.
	var cached core.CachedRun
	status, err := p.call(ctx, c, http.MethodGet, "/v1/cache/"+key, nil, &cached)
	switch {
	case err == nil && cached.Result != nil:
		p.observeSuccess(m)
		if p.cacheHits != nil {
			p.cacheHits.Inc()
		}
		// The payload round-tripped through JSON and lost the
		// non-serializable config fields; hand back the caller's own
		// (mirroring core.RunContext's cache-hit path).
		cached.Result.Config = cfg
		return cached.Result, false, nil
	case status == http.StatusNotFound:
		// Plain miss; fall through to submission.
	case err != nil:
		return nil, false, p.fail(m, err)
	}

	// 2. Submit. Server-side singleflight dedup makes resubmission after a
	// steal or a lost response idempotent: identical specs attach to the
	// same job.
	var sub server.SubmitResponse
	if _, err := p.call(ctx, c, http.MethodPost, "/v1/runs", server.RunRequest{Config: cfg}, &sub); err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 {
			// The server rejected the spec itself; every node would.
			return nil, true, err
		}
		return nil, false, p.fail(m, err)
	}

	// 3. Poll under the straggler budget.
	pctx, cancel := context.WithTimeout(ctx, p.pointTimeout)
	defer cancel()
	for {
		var st jobs.Status
		if _, err := p.call(pctx, c, http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st); err != nil {
			return nil, false, p.fail(m, err)
		}
		switch st.State {
		case jobs.StateDone:
			var art jobs.RunArtifact
			if _, err := p.call(pctx, c, http.MethodGet, "/v1/jobs/"+sub.ID+"/artifacts/result.json", nil, &art); err != nil {
				return nil, false, p.fail(m, err)
			}
			if art.Result == nil {
				return nil, false, p.fail(m, fmt.Errorf("federation: empty artifact from %s", m.Name))
			}
			p.observeSuccess(m)
			art.Result.Config = cfg
			return art.Result, false, nil
		case jobs.StateFailed:
			p.observeSuccess(m) // the node did its job; the run failed
			return nil, true, errors.New(st.Err)
		case jobs.StateCanceled:
			return nil, false, fmt.Errorf("federation: job canceled on %s", m.Name)
		}
		if serr := sleepCtx(pctx, p.pollInterval); serr != nil {
			// Straggler budget spent (or the sweep itself was canceled):
			// steal. The abandoned job keeps running remotely; dedup means
			// a re-submission elsewhere never doubles the work here.
			return nil, false, p.fail(m, fmt.Errorf("federation: point stalled on %s: %w", m.Name, serr))
		}
	}
}

// call is one bounded peer request: the member call under the pool's
// per-request timeout, within the caller's context.
func (p *Pool) call(ctx context.Context, c *Client, method, path string, body, out any) (int, error) {
	cctx, cancel := context.WithTimeout(ctx, p.requestTimeout)
	defer cancel()
	return c.DoJSON(cctx, method, path, body, out)
}

// fail records a member-level failure and passes the error through.
// Draining is tracked as its own state — deliberate, not broken.
func (p *Pool) fail(m Member, err error) error {
	if errors.Is(err, ErrDraining) {
		p.observeDraining(m)
	} else {
		p.observeFailure(m)
	}
	return err
}
