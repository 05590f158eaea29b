package policy_test

import (
	"fmt"
	"log"

	"nepdvs/internal/policy"
)

// ExampleNewLadder reproduces the paper's Figure 5 scaling table.
func ExampleNewLadder() {
	ladder, err := policy.NewLadder(1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ladder)
	// Output:
	// Frequency(MHz)	600	550	500	450	400
	// Voltage(V)	1.3	1.25	1.2	1.15	1.1
	// Threshold(Mbps)	1000	916	833	750	666
}

// ExampleOracleLevel shows the rung a perfect traffic predictor picks.
func ExampleOracleLevel() {
	ladder := policy.MustLadder(1000)
	for _, mbps := range []float64{1200, 950, 700} {
		level := policy.OracleLevel(ladder, mbps)
		fmt.Printf("%v Mbps -> %v\n", mbps, ladder.Steps[level].VF)
	}
	// Output:
	// 1200 Mbps -> 600MHz/1.3V
	// 950 Mbps -> 550MHz/1.25V
	// 700 Mbps -> 400MHz/1.1V
}
