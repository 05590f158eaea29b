package span

import (
	"encoding/json"
	"fmt"

	"nepdvs/internal/obs"
)

// Chrome trace-event JSON export. The format is the Chrome/Perfetto
// "JSON trace" dialect: an object with a traceEvents array whose entries
// carry a phase (ph), microsecond timestamps (ts, dur) and pid/tid track
// coordinates. Spans export as complete events ("X"), instants as "i",
// counters as "C", and each track gets a thread_name metadata record so
// Perfetto labels the lanes.
//
// Output is deterministic: tracks take tids in first-appearance order,
// events export in record order, and args marshal with sorted keys
// (encoding/json sorts map keys), so identical event slices yield
// byte-identical files.

// chromeEvent is one traceEvents entry. Field order fixes the byte layout.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// processName labels pid 0 in the Perfetto UI.
const processName = "nepdvs"

// usPerTimeUnit converts Event times (picoseconds for sim spans) to the
// format's microseconds.
const usPerTimeUnit = 1e6

// WriteChromeFile writes the trace atomically to path.
func WriteChromeFile(path string, events []Event) error {
	b, err := MarshalChrome(events)
	if err != nil {
		return err
	}
	return obs.AtomicWriteFile(path, b, 0o644)
}

// MarshalChrome renders events to trace-event JSON bytes. The output is a
// pure function of the input slice.
func MarshalChrome(events []Event) ([]byte, error) {
	tids := make(map[string]int)
	out := chromeFile{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": processName},
	})
	// Metadata first: walk the events once to assign tids in
	// first-appearance order and emit a thread_name per track.
	for i := range events {
		track := events[i].Track
		if _, ok := tids[track]; ok {
			continue
		}
		tid := len(tids)
		tids[track] = tid
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: tid,
			Args: map[string]any{"name": track},
		})
	}
	for i := range events {
		ev := &events[i]
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ts:   float64(ev.Start) / usPerTimeUnit,
			Tid:  tids[ev.Track],
		}
		switch ev.Kind {
		case KindSpan:
			ce.Ph = "X"
			d := float64(ev.End-ev.Start) / usPerTimeUnit
			ce.Dur = &d
		case KindInstant:
			ce.Ph = "i"
			ce.S = "t" // thread-scoped tick mark
		case KindCounter:
			ce.Ph = "C"
			ce.Args = map[string]any{"value": ev.Value}
		default:
			return nil, fmt.Errorf("span: unknown event kind %d", ev.Kind)
		}
		if ev.Kind != KindCounter && ev.Args != nil {
			args := make(map[string]any, len(ev.Args))
			for k, v := range ev.Args {
				args[k] = v
			}
			ce.Args = args
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("span: marshal chrome trace: %w", err)
	}
	return append(b, '\n'), nil
}
