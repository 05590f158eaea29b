// Command trafficgen produces IP packet traffic for the simulator: either a
// packet arrival file (replayable via the traffic package) or the Figure 2
// style day-distribution table.
//
// Examples:
//
//	trafficgen -mbps 900 -ms 13 -seed 1 -o packets.txt
//	trafficgen -level high -ms 13
//	trafficgen -day > fig2.dat
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"nepdvs/internal/cli"
	"nepdvs/internal/sim"
	"nepdvs/internal/traffic"
)

func main() {
	var (
		mbps  = flag.Float64("mbps", 0, "offered load in Mbps (overrides -level)")
		level = flag.String("level", "high", "traffic level: low, medium or high")
		ms    = flag.Float64("ms", 13.336, "duration in milliseconds")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("o", "", "output file (default stdout)")
		day   = flag.Bool("day", false, "emit the day-distribution table instead of packets")
	)
	flag.Parse()
	if err := run(*mbps, *level, *ms, *seed, *out, *day); err != nil {
		cli.Die("trafficgen", err)
	}
}

func run(mbps float64, level string, ms float64, seed int64, out string, day bool) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if day {
		bins, err := traffic.DefaultDayModel().Bins(0, 24, 5, 60)
		if err != nil {
			return err
		}
		_, err = w.WriteString(traffic.RenderBins(bins))
		return err
	}
	cfg := traffic.Config{MeanMbps: mbps, Seed: seed}
	if mbps == 0 {
		lv, err := traffic.ParseLevel(level)
		if err != nil {
			return err
		}
		cfg, err = traffic.DefaultDayModel().SampleLevel(lv, 4, seed)
		if err != nil {
			return err
		}
	}
	g, err := traffic.NewGenerator(cfg)
	if err != nil {
		return err
	}
	// Written to fail on NaN; the duration must also fit in sim.Time.
	if !(ms > 0 && ms*float64(sim.Millisecond) < math.MaxInt64) {
		return fmt.Errorf("duration must be positive and below %g ms, got %v ms", math.MaxInt64/float64(sim.Millisecond), ms)
	}
	pkts := g.GenerateUntil(sim.Time(ms * float64(sim.Millisecond)))
	if err := traffic.WritePackets(w, pkts); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trafficgen: %d packets, %.1f Mbps over %.3f ms\n",
		len(pkts), traffic.MeasureMbps(pkts, sim.Time(ms*float64(sim.Millisecond))), ms)
	return nil
}
