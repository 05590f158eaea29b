package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// textHeader is the first line of every text trace. It mirrors the column
// layout of the paper's Figure 4 snapshot, with the annotation names spelled
// out in full.
const textHeader = "# cycle time(us) energy(uJ) total_pkt total_bit event [extras]"

// TextWriter streams events to w in the human-readable line format:
//
//	# cycle time(us) energy(uJ) total_pkt total_bit event [extras]
//	365 1.573 0.768133 120 61440 m2_pipeline
//	367 1.580 0.784506 121 61952 forward
//	...
//
// Extra annotations render as trailing key=value pairs.
type TextWriter struct {
	bw     *bufio.Writer
	wrote  bool
	closed bool
	// line and keys are per-event scratch, reused so a steady-state Emit
	// allocates nothing.
	line []byte
	keys []string
}

// NewTextWriter wraps w. Call Close (or Flush) when done.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
func (t *TextWriter) Emit(ev *Event) error {
	if t.closed {
		return fmt.Errorf("trace: emit on closed TextWriter")
	}
	if ev.Name == "" {
		return fmt.Errorf("trace: empty event name")
	}
	if !t.wrote {
		if _, err := t.bw.WriteString(textHeader + "\n"); err != nil {
			return err
		}
		t.wrote = true
	}
	t.line, t.keys = ev.appendText(t.line[:0], t.keys)
	t.line = append(t.line, '\n')
	_, err := t.bw.Write(t.line)
	return err
}

// Flush pushes buffered output to the underlying writer.
func (t *TextWriter) Flush() error { return t.bw.Flush() }

// Close flushes and marks the writer unusable.
func (t *TextWriter) Close() error {
	t.closed = true
	return t.bw.Flush()
}

// TextReader parses the text trace format as a Source.
type TextReader struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewTextReader wraps r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{sc: sc}
}

// Next implements Source.
func (t *TextReader) Next() (Event, bool, error) {
	if t.err != nil {
		return Event{}, false, t.err
	}
	for t.sc.Scan() {
		t.line++
		line := strings.TrimSpace(t.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := parseTextLine(line)
		if err != nil {
			t.err = fmt.Errorf("trace: line %d: %w", t.line, err)
			return Event{}, false, t.err
		}
		return ev, true, nil
	}
	if err := t.sc.Err(); err != nil {
		t.err = err
		return Event{}, false, err
	}
	return Event{}, false, nil
}

func parseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return Event{}, fmt.Errorf("want at least 6 fields, got %d in %q", len(fields), line)
	}
	var ev Event
	var err error
	if ev.Cycle, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad cycle %q: %v", fields[0], err)
	}
	if ev.Time, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return Event{}, fmt.Errorf("bad time %q: %v", fields[1], err)
	}
	if ev.Energy, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return Event{}, fmt.Errorf("bad energy %q: %v", fields[2], err)
	}
	if ev.TotalPkt, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad total_pkt %q: %v", fields[3], err)
	}
	if ev.TotalBit, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad total_bit %q: %v", fields[4], err)
	}
	ev.Name = fields[5]
	if ev.Name == "" {
		return Event{}, fmt.Errorf("empty event name in %q", line)
	}
	for _, f := range fields[6:] {
		k, vs, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return Event{}, fmt.Errorf("bad extra annotation %q", f)
		}
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad extra annotation value %q: %v", f, err)
		}
		ev.SetExtra(k, v)
	}
	return ev, nil
}
