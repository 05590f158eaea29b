// Command timelinecheck validates a Chrome/Perfetto trace-event JSON file
// produced by nepsim -timeline: the file must parse, carry thread_name
// metadata for its tracks, and hold at least -min-spans complete ("X")
// spans on every track named by -tracks. It is the CI gate behind `make
// timeline-smoke` — a refactor that silently stops emitting a ME's
// residency spans fails here, not in a human's Perfetto tab.
//
// Example:
//
//	nepsim -bench ipfwdr -timeline t.json && timelinecheck -tracks me0,me1 t.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"nepdvs/internal/cli"
)

func main() {
	var tracks string
	var minSpans int
	flag.StringVar(&tracks, "tracks", "me0,me1,me2,me3,me4,me5",
		"comma-separated track names that must each carry spans")
	flag.IntVar(&minSpans, "min-spans", 1, "minimum complete spans required per listed track")
	flag.Parse()
	if err := run(tracks, minSpans, flag.Args()); err != nil {
		cli.Die("timelinecheck", err)
	}
}

// event is the subset of a traceEvents entry the checks need.
type event struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Tid  int             `json:"tid"`
	Dur  *float64        `json:"dur"`
	Args json.RawMessage `json:"args"`
}

func run(tracks string, minSpans int, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("exactly one timeline file argument")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: not trace-event JSON: %w", args[0], err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: empty traceEvents", args[0])
	}

	// thread_name metadata maps tids back to the recorder's track names.
	names := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" || ev.Name != "thread_name" {
			continue
		}
		var meta struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(ev.Args, &meta); err != nil {
			return fmt.Errorf("%s: thread_name metadata: %w", args[0], err)
		}
		names[ev.Tid] = meta.Name
	}
	if len(names) == 0 {
		return fmt.Errorf("%s: no thread_name metadata", args[0])
	}

	spans := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur == nil || *ev.Dur < 0 {
			return fmt.Errorf("%s: span %q on %s has no duration", args[0], ev.Name, names[ev.Tid])
		}
		spans[names[ev.Tid]]++
	}

	var missing []string
	for _, want := range strings.Split(tracks, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		if spans[want] < minSpans {
			missing = append(missing, fmt.Sprintf("%s (%d < %d)", want, spans[want], minSpans))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: tracks short on spans: %s", args[0], strings.Join(missing, ", "))
	}
	fmt.Printf("timelinecheck: OK (%d events, %d tracks, %d spans)\n",
		len(doc.TraceEvents), len(names), total(spans))
	return nil
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
