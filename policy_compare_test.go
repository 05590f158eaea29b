package nepdvs

// End-to-end acceptance for the policy_compare experiment (DESIGN.md §15):
// the ranking artifact must be byte-identical across repeat local runs, and
// a report assembled from results served over the dvsd HTTP path must match
// the locally-simulated report byte for byte. Both properties fall out of
// deterministic simulation plus PolicyCompareReport being a pure function
// of the run results — these tests pin them against regressions.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/jobs"
	"nepdvs/internal/server"
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
// configurations through a dvsd server (submit → execute → artifact fetch)
// and asserts the report rendered from the served results is byte-identical
// to the locally-simulated one.
func TestPolicyCompareServicePath(t *testing.T) {
	o := policyCompareOpts()
	local, err := experiments.Run("policy_compare", o)
	if err != nil {
		t.Fatal(err)
	}

	q := jobs.New(jobs.Options{Workers: 4, Capacity: 64, Exec: jobs.Execute})
	defer q.Shutdown(context.Background())
	srv := httptest.NewServer(server.New(server.Options{Queue: q}))
	defer srv.Close()

	cfgs, err := experiments.PolicyCompareConfigs(o)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*core.RunResult, len(cfgs))
	for i, cfg := range cfgs {
		body, err := json.Marshal(server.RunRequest{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub server.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", cfg.Policy, resp.StatusCode)
		}
		if _, err := q.Wait(context.Background(), sub.ID); err != nil {
			t.Fatal(err)
		}
		art, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/artifacts/result.json")
		if err != nil {
			t.Fatal(err)
		}
		if art.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: status %d", cfg.Policy, art.StatusCode)
		}
		var got jobs.RunArtifact
		if err := json.NewDecoder(art.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		art.Body.Close()
		if got.Result == nil {
			t.Fatalf("artifact %s: empty result", cfg.Policy)
		}
		results[i] = got.Result
	}

	served, err := experiments.PolicyCompareReport(results)
	if err != nil {
		t.Fatal(err)
	}
	if served.Body != local[0].Body {
		t.Errorf("service-path report differs from local simulation:\n--- local ---\n%s\n--- served ---\n%s", local[0].Body, served.Body)
	}
}
