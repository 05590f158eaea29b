// Command dvsd is the exploration service daemon: an HTTP API (see
// internal/server) over a bounded job queue that executes simulation runs
// and TDVS sweeps, with an optional content-addressed run cache shared with
// the offline tools.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight jobs get -drain-timeout to finish (stragglers are
// interrupted and returned to the queue), and with -state the pending queue
// is checkpointed atomically so the next boot resumes it. With -manifest a
// shutdown manifest records the final metrics and cache summary.
//
// Examples:
//
//	dvsd -addr 127.0.0.1:8377 -cache /var/tmp/dvs-cache
//	dvsd -addr 127.0.0.1:0 -addr-file dvsd.addr -state queue.json
//	dvsctl -addr "$(cat dvsd.addr)" health
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nepdvs/internal/cache"
	"nepdvs/internal/cli"
	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/jobs"
	"nepdvs/internal/obs"
	"nepdvs/internal/server"
)

type options struct {
	addr         string
	addrFile     string
	workers      int
	queueCap     int
	cacheDir     string
	cacheMax     int
	state        string
	drainTimeout time.Duration
	manifest     string
	logLevel     string
	logFormat    string
}

// newLogger builds the daemon's structured logger on stderr. Format "json"
// emits one JSON object per record (for log shippers); "text" is the
// human-readable slog form.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("dvsd: -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("dvsd: -log-format %q (want text or json)", format)
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8377", "listen address (host:port, port 0 = pick one)")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the actual listen address to this file (for port 0)")
	flag.IntVar(&o.workers, "workers", 0, "job workers (0 = one per CPU)")
	flag.IntVar(&o.queueCap, "queue-cap", 64, "max pending jobs before submissions get 503")
	flag.StringVar(&o.cacheDir, "cache", "", "content-addressed run cache directory (shared with nepsim/dvsexplore -cache)")
	flag.IntVar(&o.cacheMax, "cache-max", 0, "evict oldest cache entries past this count (0 = unbounded)")
	flag.StringVar(&o.state, "state", "", "queue checkpoint file: restored at boot, written at shutdown")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	flag.StringVar(&o.manifest, "manifest", "", "write a shutdown manifest (metrics + cache summary) to this file")
	flag.StringVar(&o.logLevel, "log-level", "info", "log verbosity: debug, info, warn or error")
	flag.StringVar(&o.logFormat, "log-format", "text", "log format: text or json")
	flag.Parse()
	if err := run(o, os.Args[1:]); err != nil {
		cli.Die("dvsd", err)
	}
}

func run(o options, rawArgs []string) error {
	start := time.Now()
	log, err := newLogger(o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	remove := experiments.ObserveRuns(reg, nil)
	defer remove()

	var store *cache.Store
	if o.cacheDir != "" {
		var err error
		store, err = cache.Open(o.cacheDir, cache.Options{Registry: reg, MaxEntries: o.cacheMax, Logger: log})
		if err != nil {
			return err
		}
		core.SetRunCache(store)
		defer core.SetRunCache(nil)
	}

	// RunMetrics folds per-run simulation counters — including the
	// per-formula loc_* assertion metrics and the loc_eval_seconds latency
	// histogram — into this daemon's /metrics registry.
	q := jobs.New(jobs.Options{Workers: o.workers, Capacity: o.queueCap, Registry: reg, RunMetrics: reg, Logger: log})
	if o.state != "" {
		n, err := q.Restore(o.state)
		if err != nil {
			return err
		}
		if n > 0 {
			log.Info("resumed pending jobs", "count", n, "state", o.state)
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.addrFile != "" {
		if err := obs.AtomicWriteFile(o.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	log.Info("listening", "addr", bound)

	hs := &http.Server{Handler: server.New(server.Options{Queue: q, Registry: reg, Logger: log})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	log.Info("draining", "timeout", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if err := q.Shutdown(drainCtx); err != nil {
		log.Warn("drain timed out; pending work checkpointed")
	}
	if o.state != "" {
		if err := q.Checkpoint(o.state); err != nil {
			return err
		}
		log.Info("checkpointed pending jobs", "count", q.Pending(), "state", o.state)
	}

	if o.manifest != "" {
		m := obs.NewManifest("dvsd", rawArgs)
		m.Config = struct {
			Addr     string `json:"addr"`
			Workers  int    `json:"workers"`
			QueueCap int    `json:"queue_cap"`
			CacheDir string `json:"cache_dir,omitempty"`
			State    string `json:"state,omitempty"`
		}{bound, o.workers, o.queueCap, o.cacheDir, o.state}
		snap := reg.Snapshot()
		m.Metrics = &snap
		if store != nil {
			m.Cache = store.Summary()
		}
		m.SetWall(time.Since(start))
		if err := m.WriteFile(o.manifest); err != nil {
			return err
		}
	}
	return nil
}
