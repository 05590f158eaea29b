// Command dvsexplore regenerates the paper's tables and figures (and the
// ablations beyond it). With no arguments it runs everything; otherwise the
// arguments name experiments (see -list).
//
// While running it shows a live progress line on stderr (suppressed when
// stderr is not a terminal, or with -quiet) with runs completed and an ETA
// estimated from finished runs. With -metrics it writes aggregate run
// metrics (metrics.json and metrics.prom) into the given directory, and
// whenever results are written a manifest.json lands next to them.
//
// The selection is validated first: an unknown or repeated experiment ID is
// a usage error (exit 2) raised before any simulation starts. The
// exploration is then resilient: named experiments and `all` run through
// one loop, and a failing experiment is recorded (in the manifest's
// failures list and the exit status) while the others complete and land on
// disk. -run-timeout bounds each simulation run with a wall-clock watchdog.
// Every output path is checked before the first write, so two outputs that
// map to one file fail the invocation, and all result files are written
// atomically, so a killed run never leaves truncated artifacts.
//
// With -cache, each completed run lands in a content-addressed result cache
// shared with nepsim. That cache is also how an exploration
// resumes: a rerun over the same cache directory, after a crash, an
// interrupt or with an overlapping selection, serves every finished run from
// disk and simulates only the rest. Cache hits count as finished runs on the
// progress line, and the manifest records the hit/miss counts.
//
// Examples:
//
//	dvsexplore -list
//	dvsexplore -list-policies
//	dvsexplore fig6 fig7 policy_compare
//	dvsexplore -cycles 2000000 -outdir results -metrics results all
//	dvsexplore -cache results/cache -run-timeout 10m -outdir results all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nepdvs/internal/cache"
	"nepdvs/internal/cli"
	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/obs"
	"nepdvs/internal/policy"
)

func main() {
	var (
		cycles     = flag.Int64("cycles", 8_000_000, "reference cycles per simulation run")
		par        = flag.Int("par", 8, "parallel simulations")
		seed       = flag.Int64("seed", 1, "traffic seed")
		outdir     = flag.String("outdir", "", "write each report to <outdir>/<id>.dat instead of stdout")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		listPol    = flag.Bool("list-policies", false, "list registered DVS/DPM policies with their parameters and exit")
		metricsDir = flag.String("metrics", "", "write metrics.json and metrics.prom into this directory")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line")
		runTimeout = flag.Duration("run-timeout", 0, "wall-clock watchdog per simulation run (0 = unbounded)")
		cacheDir   = flag.String("cache", "", "content-addressed run cache directory (shared with nepsim)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *listPol {
		fmt.Print(policy.DescribeAll())
		return
	}
	plan, err := experiments.NewPlan(flag.Args())
	if err != nil {
		cli.DieUsage("dvsexplore", err)
	}
	if err := run(*cycles, *par, *seed, *outdir, *metricsDir, *quiet,
		*runTimeout, *cacheDir, *cpuprofile, *memprofile, plan, flag.Args()); err != nil {
		cli.Die("dvsexplore", err)
	}
}

func run(cycles int64, par int, seed int64, outdir, metricsDir string, quiet bool,
	runTimeout time.Duration, cacheDir, cpuprofile, memprofile string, plan *experiments.Plan, args []string) error {

	start := time.Now()
	prof, err := obs.StartProfiles(cpuprofile, memprofile)
	if err != nil {
		return err
	}
	defer prof.Stop()

	o := experiments.Options{Cycles: cycles, Parallelism: par, Seed: seed, RunTimeout: runTimeout}
	reg := obs.NewRegistry()

	var store *cache.Store
	if cacheDir != "" {
		store, err = cache.Open(cacheDir, cache.Options{Registry: reg})
		if err != nil {
			return err
		}
	}
	prog := obs.NewProgress(os.Stderr, "runs", plan.PlannedRuns(o),
		obs.StderrIsTerminal() && !quiet)
	if store != nil {
		o.Cache = progressCache{store, prog}
	}
	remove := experiments.ObserveRuns(reg, func(wall time.Duration, failed bool) {
		prog.RunDone(failed)
	})
	defer remove()

	// The exploration is resilient: a failing experiment is recorded and
	// the rest still run, land on disk and are accounted for in the
	// manifest. A non-nil return at the end turns the failures into a
	// non-zero exit.
	reports, errs := plan.Execute(o)
	prog.Finish()
	var failures []string
	for _, err := range errs {
		failures = append(failures, err.Error())
	}

	// Every report file's path is known before the first write, so two
	// outputs mapping to one path fail the invocation before anything
	// lands on disk.
	type file struct {
		path, note string
		data       []byte
	}
	var files []file
	if outdir != "" {
		for _, r := range reports {
			dat := fmt.Sprintf("# %s\n%s", r.Title, r.Body)
			files = append(files, file{filepath.Join(outdir, r.ID+".dat"), " (" + r.Title + ")", []byte(dat)})
			for _, ch := range r.Charts {
				files = append(files, file{path: filepath.Join(outdir, r.ID+ch.Name+".svg"), data: []byte(ch.SVG)})
			}
			if r.Assertions != nil {
				ab, err := r.Assertions.JSON()
				if err != nil {
					return err
				}
				files = append(files, file{path: filepath.Join(outdir, r.ID+".assertions.json"), data: ab})
			}
		}
		seen := map[string]bool{}
		for _, f := range files {
			if seen[f.path] {
				return fmt.Errorf("two outputs map to %s", f.path)
			}
			seen[f.path] = true
		}
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	} else {
		for _, r := range reports {
			fmt.Println(r)
		}
	}
	var outputs []string
	for _, f := range files {
		if err := obs.AtomicWriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
		outputs = append(outputs, f.path)
		fmt.Printf("wrote %s%s\n", f.path, f.note)
	}

	snap := reg.Snapshot()
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return err
		}
		jsonPath := filepath.Join(metricsDir, "metrics.json")
		if err := snap.WriteJSONFile(jsonPath); err != nil {
			return err
		}
		outputs = append(outputs, jsonPath)
		promPath := filepath.Join(metricsDir, "metrics.prom")
		if err := snap.WritePrometheusFile(promPath); err != nil {
			return err
		}
		outputs = append(outputs, promPath)
	}

	// A manifest accompanies any invocation that wrote results: into the
	// report directory when there is one, else the metrics directory.
	manifestDir := outdir
	if manifestDir == "" {
		manifestDir = metricsDir
	}
	if manifestDir != "" {
		ids := args
		if len(ids) == 0 {
			ids = []string{"all"}
		}
		m := obs.NewManifest("dvsexplore", os.Args[1:])
		m.Config = struct {
			Options     experiments.Options `json:"options"`
			Experiments []string            `json:"experiments"`
		}{o, ids}
		m.Seed = seed
		m.Cycles = cycles
		m.Outputs = outputs
		m.Failures = failures
		m.Metrics = &snap
		if store != nil {
			m.Cache = store.Summary()
		}
		m.SetWall(time.Since(start))
		if err := m.WriteFile(filepath.Join(manifestDir, "manifest.json")); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "dvsexplore: %d reports in %v\n", len(reports), time.Since(start).Round(time.Millisecond))
	if err := prof.Stop(); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d experiment(s) failed: %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}

// progressCache counts each cache hit as a finished run on the progress
// line. A hit fires no run hook, so without it a resumed exploration would
// stall short of its total; experiments_runs_completed still counts only
// simulations.
type progressCache struct {
	core.RunCache
	prog *obs.Progress
}

func (c progressCache) Lookup(key string) (*core.CachedRun, bool) {
	cr, ok := c.RunCache.Lookup(key)
	if ok {
		c.prog.RunDone(false)
	}
	return cr, ok
}
