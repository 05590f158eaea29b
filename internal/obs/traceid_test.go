package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TraceIDFrom(ctx); got != "" {
		t.Fatalf("empty context carries trace ID %q", got)
	}
	ctx = WithTraceID(ctx, "r-abc123")
	if got := TraceIDFrom(ctx); got != "r-abc123" {
		t.Fatalf("TraceIDFrom = %q, want r-abc123", got)
	}
	// Empty IDs are not attached: the inherited ID survives.
	if got := TraceIDFrom(WithTraceID(ctx, "")); got != "r-abc123" {
		t.Fatalf("empty WithTraceID clobbered inherited ID: %q", got)
	}
}

// TestProgressNonTTYWritesNoEscapes pins the non-terminal contract: a
// Progress built disabled (the non-TTY path) must never emit carriage
// returns or any other bytes, whatever is called on it.
func TestProgressNonTTYWritesNoEscapes(t *testing.T) {
	var buf strings.Builder
	p := NewProgress(&buf, "runs", 5, false)
	for i := 0; i < 8; i++ {
		p.RunDone(i%2 == 0)
	}
	p.Finish()
	if buf.Len() != 0 {
		t.Fatalf("non-TTY progress wrote %q", buf.String())
	}
	if strings.Contains(buf.String(), "\r") {
		t.Fatalf("non-TTY progress emitted redraw escapes: %q", buf.String())
	}
}
