package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nepdvs/internal/obs"
	"nepdvs/internal/policy"
)

// Content-addressed run caching. PR 2 made every run a byte-identical
// function of (config, fault plan, seed) — exactly the property that makes
// result caching sound: the canonical serialization of that function input,
// hashed, addresses the result. Overlapping explorations (Figures 6–9 share
// most (threshold, window) points with the ablations) and repeated service
// requests then skip simulation entirely.
//
// The cache attaches process-wide, like the run hook: SetRunCache installs
// an implementation (see internal/cache for the on-disk store) and every
// RunContext consults it. Runs that carry an ExtraSink bypass the cache in
// both directions — a hit cannot replay the event trace the sink expects.
// Failed runs are never stored.

// runKeySchema versions the key derivation itself. Bump it whenever the
// canonical serialization or the simulation semantics change incompatibly;
// old entries then simply miss.
//
// Schema history:
//
//	1 — PolicyConfig as the closed PolicyKind enum.
//	2 — PolicyConfig as registry {Name, Params}, canonicalized (aliases
//	    resolved, defaults filled) before hashing; the chip gained the
//	    DPM sleep states.
//	3 — LOC violations gained witness provenance (bindings, worst, time
//	    density, window peaks): cached results carry the new shape and
//	    per-formula loc_* metrics, so pre-witness entries must miss.
const runKeySchema = 3

// CachedRun is the unit the run cache stores: the full result plus the
// run's own metrics snapshot, so a cache hit can replay its metrics into
// the caller's registry exactly as the simulation would have published them.
type CachedRun struct {
	Result *RunResult `json:"result"`
	// Metrics is the per-run registry snapshot (kernel, chip, DVS and fault
	// counters). Nil when the producing run was not asked for metrics.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// RunCache is the interface RunContext consults. Implementations must be
// safe for concurrent use; Lookup must return an independent value on every
// call (callers patch the result's config in place). Store failures are the
// implementation's to count and swallow — a broken cache must never fail a
// simulation that already succeeded. Both methods receive the run's
// context, which carries the request trace ID on the service path, so hits,
// misses and stores can be attributed in structured logs; the context must
// not change what is looked up or stored.
type RunCache interface {
	// Lookup returns the cached run for key, if present and intact.
	Lookup(ctx context.Context, key string) (*CachedRun, bool)
	// Store records the run under key. material is the canonical key
	// material (RunKeyMaterial) for audit; implementations may persist it
	// alongside the payload.
	Store(ctx context.Context, key string, material []byte, cr *CachedRun)
}

var runCache atomic.Pointer[RunCache]

// SetRunCache installs c as the process-wide run cache, replacing any
// previous one. Passing nil removes it. In-flight runs keep the cache they
// loaded.
func SetRunCache(c RunCache) {
	if c == nil {
		runCache.Store(nil)
		return
	}
	runCache.Store(&c)
}

func loadRunCache() RunCache {
	if p := runCache.Load(); p != nil {
		return *p
	}
	return nil
}

// codeVersion pins cache keys to the code that produced the result: the
// build's VCS revision when the binary carries one, so entries written by a
// different checkout never collide. Builds without VCS stamps (go test, go
// run) fall back to the module path — the key schema constant still guards
// against format drift.
var codeVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return bi.Main.Path
	}
	if modified == "true" {
		return rev + "+dirty"
	}
	return rev
})

// runKeyMaterial is the canonical, serializable function input of a run.
// Fields that cannot change the simulation outcome — the wall-clock
// watchdog, output sinks, metrics destinations — are excluded, so runs that
// differ only in observation share an entry.
type runKeyMaterial struct {
	Schema int       `json:"schema"`
	Code   string    `json:"code"`
	Config RunConfig `json:"config"`
	// PacketsSHA256 digests an explicit arrival schedule, which RunConfig's
	// JSON form deliberately omits.
	PacketsSHA256 string `json:"packets_sha256,omitempty"`
}

// RunKeyMaterial renders the canonical key material for a config: the
// content whose SHA-256 is the cache key. The bytes are deterministic for
// identical configs under one binary.
func RunKeyMaterial(cfg RunConfig) ([]byte, error) {
	norm := cfg
	norm.Timeout = 0
	norm.PacketCount = 0
	norm.ExtraSink = nil
	norm.Metrics = nil
	norm.Spans = nil
	// Canonicalize the policy so a run under a legacy alias ("TDVS") or
	// one spelling out a factory default explicitly shares its canonical
	// twin's content address. Unresolvable names pass through verbatim;
	// such configs fail validation and are never stored.
	name, params := policy.Canonicalize(norm.Policy.Name, policy.Params(norm.Policy.Params))
	norm.Policy = PolicyConfig{Name: name, Params: params}
	m := runKeyMaterial{Schema: runKeySchema, Code: codeVersion(), Config: norm}
	if cfg.Packets != nil {
		h := sha256.New()
		var buf [8]byte
		for _, p := range cfg.Packets {
			binary.LittleEndian.PutUint64(buf[:], p.ID)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(p.Arrival))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(p.Size))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(p.Port))
			h.Write(buf[:])
		}
		m.PacketsSHA256 = hex.EncodeToString(h.Sum(nil))
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("core: run key: %w", err)
	}
	return b, nil
}

// RunKey derives the content address of a run: the hex SHA-256 of its
// canonical key material. Two configs with equal keys produce byte-identical
// results, which is what licenses serving one's cached result for the other.
func RunKey(cfg RunConfig) (string, error) {
	b, err := RunKeyMaterial(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
