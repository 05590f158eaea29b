// Package svcpkg is a lint fixture standing in for a wall-clock host-side
// package: its time.Now use is exempted rule-by-rule through the allowlist.
package svcpkg

import "time"

// Started stamps a real start time, as the progress meter does.
func Started() time.Time { return time.Now() }
