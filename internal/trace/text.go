package trace

import (
	"bufio"
	"fmt"
	"io"

	"nepdvs/internal/loc/rt"
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

// TextReader parses the text trace format as a Source. It is a thin
// wrapper over rt.TextReader, the one text-trace parser, which the
// locgen-generated checkers embed too.
type TextReader struct{ r *rt.TextReader }

// NewTextReader wraps r.
func NewTextReader(r io.Reader) *TextReader { return &TextReader{r: rt.NewTextReader(r)} }

// Next implements Source.
func (t *TextReader) Next() (Event, bool, error) {
	var ev rt.Event
	if ok, err := t.r.Next(&ev); !ok {
		return Event{}, false, err
	}
	return Event(ev), true, nil
}
