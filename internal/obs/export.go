package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteJSON serializes a snapshot as indented JSON. encoding/json emits map
// keys in sorted order, so equal snapshots produce identical bytes — the
// property the -metrics acceptance test relies on.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSONFile writes the snapshot to path atomically (temp file + fsync
// + rename), so readers never observe a partially written snapshot.
func (s Snapshot) WriteJSONFile(path string) error {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return err
	}
	return AtomicWriteFile(path, buf.Bytes(), 0o644)
}

// WritePrometheusFile writes the snapshot in Prometheus text format to
// path, atomically.
func (s Snapshot) WritePrometheusFile(path string) error {
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		return err
	}
	return AtomicWriteFile(path, buf.Bytes(), 0o644)
}

// promName rewrites a metric name into the Prometheus charset: anything
// outside [a-zA-Z0-9_:] becomes an underscore.
func promName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation, +Inf for the histogram top bucket).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as plain samples, histograms
// as cumulative le-labelled buckets with _sum and _count. Output is sorted
// by metric name, so it is deterministic too.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", promName(k), promName(k), s.Counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", promName(k), promName(k), formatFloat(s.Gauges[k])); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := uint64(0)
		for i, e := range h.Edges {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(e), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, formatFloat(h.Sum), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}
