// Command dvsctl is the client for the dvsd exploration service: it submits
// runs and sweeps, polls job status, and fetches finished artifacts over
// the HTTP API in internal/server.
//
// Usage:
//
//	dvsctl [-addr host:port] <command> [flags]
//
// Commands:
//
//	config  print a default run configuration as JSON (input for run/sweep)
//	run     submit one simulation (-config FILE, "-" = stdin)
//	sweep   submit a TDVS sweep over -thresholds × -windows
//	jobs     list all jobs
//	status   print one job's status
//	wait     block until a job finishes
//	fetch    download a finished job's result.json
//	timeline download a finished job's stage timeline (Perfetto JSON)
//	assertions download a finished job's assertion report (loc.Report JSON)
//	cancel   cancel a job
//	health   check the daemon is up
//	metrics  dump the daemon's Prometheus metrics
//
// Every invocation mints one request ID (or takes -request-id) and sends it
// as X-Request-ID on each call, so the daemon's structured log ties the
// submission, the job's execution, and any artifact fetches to this one
// client action. Submissions print the ID on stderr for later grep.
//
// Requests retry transient connection errors with capped exponential
// backoff and jitter, and honor Retry-After on 503 (a loaded queue); a 503
// without Retry-After means the daemon is draining and fails fast.
//
// Exit status follows internal/cli: 2 for a usage error (unknown command,
// missing -config, unparsable -thresholds/-windows, missing or extra
// JOB_ID), 4 when an -out file cannot be written, 1 for anything else that
// fails (the daemon unreachable, a job that failed).
//
// Examples:
//
//	dvsctl config -bench ipfwdr -level high -cycles 2000000 > cfg.json
//	dvsctl sweep -config cfg.json -thresholds 600,800,1000 -windows 40000,80000 -wait -out result.json
//	dvsctl run -config cfg.json -wait
//	dvsctl status j-000001-3f2a9c1e
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"nepdvs/internal/cli"
	"nepdvs/internal/core"
	"nepdvs/internal/obs"
	"nepdvs/internal/server"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "dvsd address (host:port)")
	reqID := flag.String("request-id", "", "X-Request-ID to send (default: mint one per invocation)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dvsctl [-addr host:port] <command> [flags]\n")
		fmt.Fprintf(os.Stderr, "commands: config run sweep jobs status wait fetch timeline assertions cancel health metrics\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	id := *reqID
	if id == "" {
		id = newRequestID()
	}
	c := newClient("http://"+*addr, id)
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "config":
		err = cmdConfig(rest)
	case "run":
		err = cmdRun(c, rest)
	case "sweep":
		err = cmdSweep(c, rest)
	case "jobs":
		err = cmdJobs(c)
	case "status":
		err = cmdStatus(c, rest)
	case "wait":
		err = cmdWait(c, rest)
	case "fetch":
		err = cmdFetch(c, rest)
	case "timeline":
		err = cmdTimeline(c, rest)
	case "assertions":
		err = cmdAssertions(c, rest)
	case "cancel":
		err = cmdCancel(c, rest)
	case "health":
		err = cmdHealth(c)
	case "metrics":
		err = cmdMetrics(c)
	default:
		cli.DieUsage("dvsctl", fmt.Errorf("unknown command %q", cmd))
	}
	if err != nil {
		cli.Die("dvsctl", err)
	}
}

// newRequestID mints the invocation's trace ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-00000000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// readConfig loads a core.RunConfig from a JSON file ("-" = stdin).
func readConfig(path string) (core.RunConfig, error) {
	var cfg core.RunConfig
	if path == "" {
		cli.DieUsage("dvsctl", fmt.Errorf("-config is required (use 'dvsctl config' to generate one)"))
	}
	var src []byte
	var err error
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(src, &cfg); err != nil {
		return cfg, fmt.Errorf("parse config %s: %w", path, err)
	}
	return cfg, nil
}

func cmdConfig(args []string) error {
	fs := flag.NewFlagSet("dvsctl config", flag.ExitOnError)
	bench := fs.String("bench", "ipfwdr", "benchmark: ipfwdr, url, nat or md4")
	level := fs.String("level", "high", "traffic level: low, medium or high")
	seed := fs.Int64("seed", 1, "traffic seed")
	cycles := fs.Int64("cycles", 8_000_000, "run length in reference cycles")
	formulas := fs.String("formulas", "", "LOC formulas file to embed")
	fs.Parse(args)

	lv, err := traffic.ParseLevel(*level)
	if err != nil {
		return err
	}
	cfg, err := core.DefaultRunConfig(workload.Name(*bench), lv, *seed)
	if err != nil {
		return err
	}
	cfg.Cycles = *cycles
	if *formulas != "" {
		src, err := os.ReadFile(*formulas)
		if err != nil {
			return err
		}
		cfg.Formulas = string(src)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}

// submit posts a request, optionally waits for completion and fetches the
// artifact — the shared tail of run and sweep.
func submit(c client, path string, req any, wait bool, out string) error {
	var sub server.SubmitResponse
	if err := c.do(http.MethodPost, path, req, &sub); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dvsctl: job %s (deduped=%v, request-id=%s)\n", sub.ID, sub.Deduped, c.requestID)
	if !wait {
		fmt.Println(sub.ID)
		return nil
	}
	if err := waitJob(c, sub.ID); err != nil {
		return err
	}
	if out == "" {
		fmt.Println(sub.ID)
		return nil
	}
	return fetchArtifact(c, sub.ID, out)
}

func cmdRun(c client, args []string) error {
	fs := flag.NewFlagSet("dvsctl run", flag.ExitOnError)
	config := fs.String("config", "", "run configuration JSON file (- = stdin)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	wait := fs.Bool("wait", false, "block until the job finishes")
	out := fs.String("out", "", "with -wait: write the artifact to this file (- = stdout)")
	fs.Parse(args)
	cfg, err := readConfig(*config)
	if err != nil {
		return err
	}
	return submit(c, "/v1/runs", server.RunRequest{Config: cfg, Priority: *priority}, *wait, *out)
}

func cmdSweep(c client, args []string) error {
	fs := flag.NewFlagSet("dvsctl sweep", flag.ExitOnError)
	config := fs.String("config", "", "base configuration JSON file (- = stdin)")
	thresholds := fs.String("thresholds", "", "comma-separated TDVS thresholds in Mbps")
	windows := fs.String("windows", "", "comma-separated monitor windows in cycles")
	par := fs.Int("par", 0, "parallel points inside the sweep (0 = one per CPU)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	wait := fs.Bool("wait", false, "block until the job finishes")
	out := fs.String("out", "", "with -wait: write the artifact to this file (- = stdout)")
	fs.Parse(args)
	cfg, err := readConfig(*config)
	if err != nil {
		return err
	}
	ths, err := parseFloats(*thresholds)
	if err != nil {
		cli.DieUsage("dvsctl", fmt.Errorf("-thresholds: %w", err))
	}
	wins, err := parseInts(*windows)
	if err != nil {
		cli.DieUsage("dvsctl", fmt.Errorf("-windows: %w", err))
	}
	req := server.SweepRequest{Config: cfg, Thresholds: ths, Windows: wins, Parallelism: *par, Priority: *priority}
	return submit(c, "/v1/sweeps", req, *wait, *out)
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func parseInts(s string) ([]int64, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// oneID returns the single JOB_ID argument, exiting 2 when there is not
// exactly one.
func oneID(cmd string, args []string) string {
	if len(args) != 1 {
		cli.DieUsage("dvsctl", fmt.Errorf("usage: dvsctl %s JOB_ID", cmd))
	}
	return args[0]
}

// writeOut delivers a downloaded artifact: to stdout for "" or "-",
// otherwise atomically to the file, exiting 4 when the write fails.
func writeOut(path string, raw []byte) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(raw)
		return err
	}
	if err := obs.AtomicWriteFile(path, raw, 0o644); err != nil {
		cli.DieIO("dvsctl", err)
	}
	fmt.Fprintf(os.Stderr, "dvsctl: wrote %s (%d bytes)\n", path, len(raw))
	return nil
}

func cmdJobs(c client) error {
	var raw []byte
	if err := c.do(http.MethodGet, "/v1/jobs", nil, &raw); err != nil {
		return err
	}
	return printJSON(raw)
}

func cmdStatus(c client, args []string) error {
	id := oneID("status", args)
	var raw []byte
	if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &raw); err != nil {
		return err
	}
	return printJSON(raw)
}

// jobStatus mirrors the status fields wait needs; the full shape lives in
// internal/jobs.
type jobStatus struct {
	State       string `json:"state"`
	PointsDone  int    `json:"points_done"`
	PointsTotal int    `json:"points_total"`
	Err         string `json:"err"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

func waitJob(c client, id string) error {
	for {
		var st jobStatus
		if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
			return err
		}
		if terminal(st.State) {
			if st.State != "done" {
				return fmt.Errorf("job %s %s: %s", id, st.State, st.Err)
			}
			return nil
		}
		time.Sleep(150 * time.Millisecond)
	}
}

func cmdWait(c client, args []string) error {
	fs := flag.NewFlagSet("dvsctl wait", flag.ExitOnError)
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = wait forever)")
	fs.Parse(args)
	id := oneID("wait", fs.Args())
	if *timeout > 0 {
		done := make(chan error, 1)
		go func() { done <- waitJob(c, id) }()
		select {
		case err := <-done:
			return err
		case <-time.After(*timeout):
			return fmt.Errorf("job %s still running after %v", id, *timeout)
		}
	}
	return waitJob(c, id)
}

func fetchArtifact(c client, id, out string) error {
	var raw []byte
	if err := c.do(http.MethodGet, "/v1/jobs/"+id+"/artifacts/result.json", nil, &raw); err != nil {
		return err
	}
	return writeOut(out, raw)
}

func cmdFetch(c client, args []string) error {
	fs := flag.NewFlagSet("dvsctl fetch", flag.ExitOnError)
	out := fs.String("out", "-", "destination file (- = stdout)")
	fs.Parse(args)
	id := oneID("fetch", fs.Args())
	return fetchArtifact(c, id, *out)
}

// cmdTimeline downloads a finished job's stage timeline: queue wait,
// execution and artifact write as a Perfetto/Chrome trace-event file.
func cmdTimeline(c client, args []string) error {
	fs := flag.NewFlagSet("dvsctl timeline", flag.ExitOnError)
	out := fs.String("out", "-", "destination file (- = stdout); load it in ui.perfetto.dev")
	fs.Parse(args)
	id := oneID("timeline", fs.Args())
	var raw []byte
	if err := c.do(http.MethodGet, "/v1/jobs/"+id+"/timeline", nil, &raw); err != nil {
		return err
	}
	return writeOut(*out, raw)
}

// cmdAssertions downloads a finished job's assertion report: per-formula
// verdicts, violation witnesses, worst offender and violation density
// (loc.Report JSON, byte-identical to the local locheck -report output for
// the same run).
func cmdAssertions(c client, args []string) error {
	fs := flag.NewFlagSet("dvsctl assertions", flag.ExitOnError)
	out := fs.String("out", "-", "destination file (- = stdout)")
	fs.Parse(args)
	id := oneID("assertions", fs.Args())
	var raw []byte
	if err := c.do(http.MethodGet, "/v1/jobs/"+id+"/assertions", nil, &raw); err != nil {
		return err
	}
	return writeOut(*out, raw)
}

func cmdCancel(c client, args []string) error {
	id := oneID("cancel", args)
	var raw []byte
	if err := c.do(http.MethodDelete, "/v1/jobs/"+id, nil, &raw); err != nil {
		return err
	}
	return printJSON(raw)
}

func cmdHealth(c client) error {
	var raw []byte
	if err := c.do(http.MethodGet, "/healthz", nil, &raw); err != nil {
		return err
	}
	return printJSON(raw)
}

func cmdMetrics(c client) error {
	var raw []byte
	if err := c.do(http.MethodGet, "/metrics", nil, &raw); err != nil {
		return err
	}
	_, err := os.Stdout.Write(raw)
	return err
}

// printJSON re-indents a JSON body for the terminal.
func printJSON(raw []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(raw), "", "  "); err != nil {
		os.Stdout.Write(raw)
		return nil
	}
	buf.WriteByte('\n')
	_, err := buf.WriteTo(os.Stdout)
	return err
}
