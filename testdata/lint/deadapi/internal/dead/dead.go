// Package dead holds one case for each way the api/unused rule treats an
// exported name of an internal/ package.
package dead

import "strconv"

// Unused is called by nothing: flagged.
func Unused() int { return 1 }

// TestOnly is called only by dead_test.go: flagged, because test files do
// not count as users.
func TestOnly() int { return 2 }

// Used is called by cmd/tool: not flagged.
func Used() Kind { return 3 }

// Kind is a value cmd/tool prints.
type Kind int

// String is called through fmt.Stringer, never by name: not flagged.
func (k Kind) String() string { return "kind" + strconv.Itoa(int(k)) }

// MustHelper is unused, but carries an inline allow: not flagged.
//
//nepvet:allow api/unused a helper kept for the fixture's own tests
func MustHelper() int { return 4 }
