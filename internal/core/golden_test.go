package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"nepdvs/internal/obs"
	"nepdvs/internal/span"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// goldenPolicies are the registry policies TestPolicyGolden pins, one
// design point each. tdvs carries a non-zero hysteresis so the th·(1±h)
// bands are exercised; combined covers the h = 0 paper band.
var goldenPolicies = []struct {
	name   string
	policy PolicyConfig
}{
	{"tdvs", NewPolicy("tdvs", map[string]float64{"top_threshold_mbps": 1000, "window_cycles": 20_000, "hysteresis": 0.02})},
	{"edvs", EDVSPolicy(20_000, 0.10)},
	{"combined", CombinedPolicy(1000, 20_000, 0.10)},
	{"oracle", OraclePolicy(1000, 20_000)},
	{"pid", NewPolicy("pid", map[string]float64{"window_cycles": 20_000})},
	{"psm", NewPolicy("psm", map[string]float64{"window_cycles": 20_000})},
}

// goldenDigests runs cfg with every observable surface attached and
// returns the SHA-256 of the NPT1 trace, the metrics snapshot JSON, the
// Chrome timeline JSON and the JSON of RunResult.DVSStats, in that order.
func goldenDigests(t *testing.T, cfg RunConfig) ([4]string, *RunResult) {
	t.Helper()
	var tr bytes.Buffer
	bw := trace.NewBinaryWriter(&tr)
	cfg.ExtraSink = bw
	cfg.Metrics = obs.NewRegistry()
	rec := span.NewRecorder()
	cfg.Spans = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := cfg.Metrics.Snapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	timeline, err := span.MarshalChrome(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(res.DVSStats)
	if err != nil {
		t.Fatal(err)
	}
	var out [4]string
	for i, b := range [][]byte{tr.Bytes(), snap.Bytes(), timeline, stats} {
		out[i] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return out, res
}

// TestPolicyGolden is the policy layer's characterization test: each
// registry policy, clean and under an intensity-0.8 fault plan, must
// reproduce the recorded digests of its trace, metrics, timeline and
// controller statistics byte for byte. The digests live in
// testdata/policy_golden.txt; a mismatch prints the new set. They are
// pinned on amd64 only, where the float code generation they capture
// (no fused multiply-add) matches the platform they were recorded on.
func TestPolicyGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse float operations differently", runtime.GOARCH)
	}
	want := map[string]string{}
	f, err := os.Open("testdata/policy_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		want[key] = rest
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got []string
	mismatch := false
	for _, faulted := range []bool{false, true} {
		for _, p := range goldenPolicies {
			cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
			cfg.Cycles = 500_000
			key := p.name
			if faulted {
				cfg = faultedCfg(t, 0.8)
				key += "/faulted"
			}
			cfg.Policy = p.policy
			d, res := goldenDigests(t, cfg)
			if res.DVSStats == nil || res.DVSStats.Transitions == 0 {
				t.Errorf("%s: the policy never acted, so its digests pin nothing", key)
			}
			line := strings.Join(d[:], " ")
			got = append(got, key+" "+line)
			if want[key] != line {
				mismatch = true
				t.Errorf("%s: digests differ from testdata/policy_golden.txt", key)
			}
		}
	}
	if mismatch {
		t.Logf("new digests (name npt1 metrics timeline dvsstats):\n%s", strings.Join(got, "\n"))
	}
}
