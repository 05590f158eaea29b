// Command tracestat summarizes a simulation trace: event counts, covered
// time span, energy and average power, and forwarding progress. Traces may
// be text or binary (auto-detected) and are read from a file argument or
// stdin.
//
// With -json the summary is a machine-readable document instead of the
// text report. With -timeline FILE the trace is additionally converted to
// Chrome/Perfetto trace-event JSON (open in ui.perfetto.dev); stored traces
// carry points rather than intervals, so the timeline shows instants and
// counter series — full spans come from nepsim -timeline on a live run.
//
// Examples:
//
//	nepsim -bench ipfwdr -trace run.trc && tracestat run.trc
//	tracestat -json run.trc | jq .forward_mbps
//	tracestat -timeline run.trace.json run.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"nepdvs/internal/cli"
	"nepdvs/internal/span"
	"nepdvs/internal/trace"
)

func main() {
	var jsonOut bool
	var timeline string
	flag.BoolVar(&jsonOut, "json", false, "print the summary as JSON")
	flag.StringVar(&timeline, "timeline", "", "also write a Chrome/Perfetto trace-event JSON file")
	flag.Parse()
	if err := run(jsonOut, timeline, flag.Args()); err != nil {
		cli.Die("tracestat", err)
	}
}

func run(jsonOut bool, timeline string, args []string) error {
	in := os.Stdin
	if len(args) > 1 {
		return fmt.Errorf("at most one trace file argument")
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	src, err := trace.OpenSource(in)
	if err != nil {
		return err
	}

	// Sources are single-pass; when the timeline export needs a second pass
	// the events are buffered once and replayed from memory. A reader lends
	// each event's Extra map only until its next Next, so each is cloned.
	if timeline != "" {
		var evs []trace.Event
		for {
			ev, ok, err := src.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			evs = append(evs, ev.Clone())
		}
		events, err := span.FromTrace(&trace.SliceSource{Events: evs})
		if err != nil {
			return err
		}
		if err := span.WriteChromeFile(timeline, events); err != nil {
			return err
		}
		src = &trace.SliceSource{Events: evs}
	}

	sum, err := trace.Summarize(src)
	if err != nil {
		return err
	}
	if jsonOut {
		return sum.WriteJSON(os.Stdout)
	}
	fmt.Print(sum)
	return nil
}
