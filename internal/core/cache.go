package core

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"

	"nepdvs/internal/obs"
	"nepdvs/internal/policy"
)

// Content-addressed run caching. PR 2 made every run a byte-identical
// function of (config, fault plan, seed) — exactly the property that makes
// result caching sound: the canonical serialization of that function input,
// hashed, addresses the result. Overlapping explorations (Figures 6–9 share
// most (threshold, window) points with the ablations) and repeated or
// resumed explorations then skip simulation entirely.
//
// The cache is an explicit argument: RunCached and RunBatch consult the
// implementation they are given (see internal/cache for the on-disk store),
// and Run consults none. Runs that carry an ExtraSink bypass the cache in
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

// RunCache is the interface RunCached consults. Implementations must be
// safe for concurrent use; Lookup must return an independent value on every
// call (callers patch the result's config in place). Store failures are the
// implementation's to count and swallow — a broken cache must never fail a
// simulation that already succeeded.
type RunCache interface {
	// Lookup returns the cached run for key, if present and intact.
	Lookup(key string) (*CachedRun, bool)
	// Store records the run under key. material is the canonical key
	// material (RunKeyMaterial) for audit; implementations may persist it
	// alongside the payload.
	Store(key string, material []byte, cr *CachedRun)
}

// codeVersion pins cache keys to the code that produced the result. It is
// computed once per process, by the first key derivation; RunCached derives
// a cached run's key before simulating it, so the pin precedes the first
// cached simulation.
var codeVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		bi = &debug.BuildInfo{}
	}
	return codeVersionOf(bi.Main.Path, bi.Settings, exeHash)
})

// codeVersionOf derives the code version from a build's module path and
// settings. A clean build is its VCS revision, so entries written by a
// different checkout never collide. A revision does not pin the code of a
// dirty build, and builds without VCS stamps (go run, go test) carry none,
// so both also name the SHA-256 of their executable, which exeHash returns:
// a rebuilt binary misses every entry its predecessor wrote.
func codeVersionOf(module string, settings []debug.BuildSetting, exeHash func() string) string {
	var rev, modified string
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	switch {
	case rev == "":
		return module + "+exe:" + exeHash()
	case modified == "true":
		return rev + "+dirty+exe:" + exeHash()
	}
	return rev
}

// exeHash returns the hex SHA-256 of the running executable. When that
// cannot be read it hashes random bytes instead, so the process shares no
// entries rather than possibly replaying another build's.
func exeHash() string {
	h := sha256.New()
	path, err := os.Executable()
	var f *os.File
	if err == nil {
		f, err = os.Open(path)
	}
	if err == nil {
		_, err = io.Copy(h, f)
		f.Close()
	}
	if err != nil {
		h.Reset()
		io.CopyN(h, rand.Reader, 32)
	}
	return hex.EncodeToString(h.Sum(nil))
}

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
