// Package clock holds two inline allows: one that suppresses a finding and
// one left behind after the code it excused was deleted.
package clock

import "time"

// Stamp reads the wall clock under an allow that suppresses the finding.
func Stamp() time.Time {
	return time.Now() //nepvet:allow det/wallclock the fixture's one excused read
}

// Mean no longer ranges over a map, so its allow suppresses nothing.
//
//nepvet:allow det/maprange kept after the map iteration was deleted
func Mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
