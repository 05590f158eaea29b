package nepdvs

// End-to-end acceptance for the policy_compare experiment (DESIGN.md §15):
// the ranking artifact must be byte-identical across repeat local runs, and
// a report assembled from results served by the run cache must match the
// locally-simulated report byte for byte. Both properties fall out of
// deterministic simulation plus PolicyCompareReport being a pure function
// of the run results — these tests pin them against regressions.

import (
	"encoding/json"
	"strings"
	"testing"

	"nepdvs/internal/cache"
	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/obs"
)

func policyCompareOpts() experiments.Options {
	return experiments.Options{Cycles: 200_000, Parallelism: 4, Seed: 1}
}

func TestPolicyCompareDeterministic(t *testing.T) {
	o := policyCompareOpts()
	first, err := experiments.Run("policy_compare", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].ID != "policy_compare" {
		t.Fatalf("unexpected reports: %v", first)
	}
	body := first[0].Body

	// Every registered comparison policy appears, each with a rank.
	for _, pol := range experiments.PolicyComparePolicies() {
		if !strings.Contains(body, "\t"+pol.String()+"\t") {
			t.Errorf("report lacks a ranked row for %s:\n%s", pol, body)
		}
	}
	for _, rank := range []string{"1\t", "2\t", "3\t", "4\t"} {
		if !strings.Contains(body, "\n"+rank) && !strings.HasPrefix(body, rank) {
			t.Errorf("report lacks rank %q:\n%s", strings.TrimSpace(rank), body)
		}
	}

	second, err := experiments.Run("policy_compare", o)
	if err != nil {
		t.Fatal(err)
	}
	if body != second[0].Body {
		t.Error("policy_compare artifact differs across repeat runs")
	}
}

// TestPolicyCompareServicePath pushes the exact policy_compare run
// configurations through core.RunBatch over an on-disk run cache, reopens
// the store and runs them again, and asserts that every second run is a
// hit and that the report rendered from the served results (after a JSON
// round trip, the cache's storage form) is byte-identical to the
// locally-simulated one.
func TestPolicyCompareServicePath(t *testing.T) {
	o := policyCompareOpts()
	local, err := experiments.Run("policy_compare", o)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := experiments.PolicyCompareConfigs(o)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	batch := func() ([]core.BatchResult, map[string]uint64) {
		t.Helper()
		reg := obs.NewRegistry()
		store, err := cache.Open(dir, cache.Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		out := core.RunBatch(cfgs, o.Parallelism, store)
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("run %s: %v", cfgs[i].Policy, r.Err)
			}
		}
		return out, reg.Snapshot().Counters
	}
	if _, c := batch(); c["cache_stores"] != uint64(len(cfgs)) {
		t.Fatalf("first batch counters %v, want %d stores", c, len(cfgs))
	}
	served, c := batch()
	if c["cache_hits"] != uint64(len(cfgs)) || c["cache_misses"] != 0 {
		t.Fatalf("reopened batch counters %v, want %d hits and no misses", c, len(cfgs))
	}

	results := make([]*core.RunResult, len(served))
	for i, r := range served {
		b, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	report, err := experiments.PolicyCompareReport(results)
	if err != nil {
		t.Fatal(err)
	}
	if report.Body != local[0].Body {
		t.Errorf("cache-served report differs from local simulation:\n--- local ---\n%s\n--- served ---\n%s", local[0].Body, report.Body)
	}
}
