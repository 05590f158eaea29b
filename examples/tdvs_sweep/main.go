// TDVS design-space exploration: sweep threshold × window for a chosen
// benchmark, extract the 80th-percentile power and throughput from the LOC
// distribution analyzers, and print the two surfaces of the paper's
// Figures 8 and 9 — then name the power-optimal and performance-optimal
// configurations the way §4.1 concludes.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"nepdvs/internal/core"
	"nepdvs/internal/stats"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func main() {
	bench := flag.String("bench", "ipfwdr", "benchmark to explore")
	cycles := flag.Int64("cycles", 2_000_000, "reference cycles per run")
	flag.Parse()

	base, err := core.DefaultRunConfig(workload.Name(*bench), traffic.LevelHigh, 1)
	if err != nil {
		log.Fatal(err)
	}
	base.Cycles = *cycles
	base.Formulas = core.StandardFormulas()

	thresholds := []float64{800, 1000, 1200, 1400}
	windows := []int64{20000, 40000, 60000, 80000}
	points := core.TDVSGrid(thresholds, windows)
	cfgs := make([]core.RunConfig, len(points))
	for i, pt := range points {
		cfgs[i] = core.TDVSPointConfig(base, pt)
	}
	results := core.RunBatch(cfgs, 8, nil)

	power := stats.NewSurface("threshold_mbps", "window_cycles", "power_w_p80")
	tput := stats.NewSurface("threshold_mbps", "window_cycles", "throughput_mbps_p80")
	for i, r := range results {
		if r.Err != nil {
			log.Fatalf("point %+v: %v", points[i], r.Err)
		}
		pt := points[i]
		p, _ := r.Result.LOCByName("power")
		t, _ := r.Result.LOCByName("throughput")
		power.Set(pt.ThresholdMbps, float64(pt.WindowCycles), p.Dist.Hist.QuantileUpper(0.8))
		tput.Set(pt.ThresholdMbps, float64(pt.WindowCycles), t.Dist.Hist.QuantileLower(0.8))
	}

	fmt.Println("# Figure 8: 80th-percentile power surface")
	fmt.Print(power.Render())
	fmt.Println("# Figure 9: 80th-percentile throughput surface")
	fmt.Print(tput.Render())

	if px, py, pz := power.MinZ(); math.IsNaN(pz) {
		fmt.Println("power-optimal config:       none, no design point had a power distribution")
	} else {
		fmt.Printf("power-optimal config:       threshold %g Mbps, window %gk cycles (%.3f W at p80)\n", px, py/1000, pz)
	}
	if tx, ty, tz := tput.MaxZ(); math.IsNaN(tz) {
		fmt.Println("performance-optimal config: none, no design point had a throughput distribution")
	} else {
		fmt.Printf("performance-optimal config: threshold %g Mbps, window %gk cycles (%.0f Mbps at p80)\n", tx, ty/1000, tz)
	}
}
