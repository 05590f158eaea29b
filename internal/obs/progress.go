package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Progress renders a single live status line ("runs 12/53 (23%) eta 41s")
// on a terminal. It is safe for concurrent RunDone calls from parallel
// sweep workers, rate-limits its redraws, and degrades to silence when the
// destination is not a terminal (or the user asked for quiet), so piping a
// tool's stderr to a file never captures control characters.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	enabled bool
	label   string
	total   int
	done    int
	failed  int
	start   time.Time
	lastLen int
	lastAt  time.Time
	// now is the clock, swappable in tests.
	now func() time.Time
	// minRedraw throttles terminal writes.
	minRedraw time.Duration
}

// StderrIsTerminal reports whether stderr is a character device — the
// condition for showing a live progress line.
func StderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

// NewProgress creates a progress line over total units written to w. When
// enabled is false every method is a cheap no-op.
func NewProgress(w io.Writer, label string, total int, enabled bool) *Progress {
	p := &Progress{
		w: w, label: label, total: total, enabled: enabled,
		now: time.Now, minRedraw: 100 * time.Millisecond,
	}
	p.start = p.now()
	if enabled {
		p.redrawLocked()
	}
	return p
}

// RunDone records one completed unit and redraws.
func (p *Progress) RunDone(failed bool) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if failed {
		p.failed++
	}
	now := p.now()
	if p.done < p.total && now.Sub(p.lastAt) < p.minRedraw {
		return
	}
	p.lastAt = now
	p.redrawLocked()
}

// eta estimates remaining wall time from completed-run throughput: with
// done runs finished in elapsed time, the remaining (total-done) runs take
// elapsed/done each at the observed (parallel) rate.
func (p *Progress) eta() (time.Duration, bool) {
	if p.done == 0 || p.total <= p.done {
		return 0, false
	}
	elapsed := p.now().Sub(p.start)
	per := elapsed / time.Duration(p.done)
	return per * time.Duration(p.total-p.done), true
}

func (p *Progress) redrawLocked() {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d/%d", p.label, p.done, p.total)
	if p.total > 0 {
		fmt.Fprintf(&b, " (%d%%)", 100*p.done/p.total)
	}
	if p.failed > 0 {
		fmt.Fprintf(&b, " [%d failed]", p.failed)
	}
	if eta, ok := p.eta(); ok {
		fmt.Fprintf(&b, " eta %s", eta.Round(time.Second))
	}
	line := b.String()
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastLen = len(line)
}

// Finish clears the progress line so subsequent output starts on a clean
// line. Call it exactly once when the work completes.
func (p *Progress) Finish() {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastLen > 0 {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.lastLen))
		p.lastLen = 0
	}
}
