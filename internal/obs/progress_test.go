package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per reading so ETA math is exercised
// deterministically.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(f.step)
	return f.t
}

func newTestProgress(w *bytes.Buffer, total int) *Progress {
	p := NewProgress(w, "runs", total, true)
	p.minRedraw = 0
	p.now = (&fakeClock{t: time.Unix(0, 0), step: time.Second}).now
	return p
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := newTestProgress(&buf, 4)
	p.RunDone(false)
	p.RunDone(false)
	out := buf.String()
	if !strings.Contains(out, "runs 2/4 (50%)") {
		t.Errorf("progress output missing done/total: %q", out)
	}
	if !strings.Contains(out, "eta ") {
		t.Errorf("progress output missing eta: %q", out)
	}
	if !strings.Contains(out, "\r") {
		t.Errorf("progress did not redraw in place: %q", out)
	}
	p.RunDone(true)
	if !strings.Contains(buf.String(), "[1 failed]") {
		t.Errorf("failed count not shown: %q", buf.String())
	}
	p.Finish()
	if !strings.HasSuffix(buf.String(), "\r") {
		t.Errorf("Finish did not clear the line: %q", buf.String())
	}
}

func TestProgressDisabledIsSilent(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "runs", 10, false)
	p.RunDone(false)
	p.Finish()
	if buf.Len() != 0 {
		t.Errorf("disabled progress wrote %q", buf.String())
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

func TestProgressConcurrent(t *testing.T) {
	var buf safeBuffer
	p := NewProgress(&buf, "runs", 64, true)
	p.minRedraw = 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				p.RunDone(false)
			}
		}()
	}
	wg.Wait()
	p.Finish()
	if !strings.Contains(buf.String(), "64/64") {
		t.Errorf("final count missing: %q", buf.String())
	}
}

// safeBuffer is a bytes.Buffer safe for the concurrent redraws above.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
