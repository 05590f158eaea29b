// Package cache is the on-disk half of the content-addressed run cache: a
// directory of atomic JSON entries keyed by core.RunKey. Each entry carries
// the canonical key material it was derived from plus a SHA-256 over its
// payload, so corruption — a torn write, a flipped bit, a hand-edited file —
// is detected on read and degrades to a miss instead of serving a wrong
// result. The store implements core.RunCache; pass it to core.RunCached or
// core.RunBatch (or as experiments.Options.Cache) and those runs become
// cacheable.
//
// Failure semantics, in one line: the cache never fails a simulation. Read
// errors are misses, write errors are counted and swallowed, corrupt entries
// are deleted on detection.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nepdvs/internal/core"
	"nepdvs/internal/obs"
)

// fileSchema versions the on-disk entry envelope (not the key derivation,
// which core.RunKey versions separately). Entries with a different schema
// are treated as misses.
const fileSchema = 1

// fileEntry is the on-disk envelope for one cached run.
type fileEntry struct {
	Schema int `json:"schema"`
	// Key is the content address (hex SHA-256 of Material); stored so an
	// entry renamed on disk still declares what it caches.
	Key string `json:"key"`
	// Material is the canonical key material (core.RunKeyMaterial) — the
	// audit trail from key back to config.
	Material json.RawMessage `json:"material"`
	// SHA256 is the hex digest of Payload, checked on every read.
	SHA256 string `json:"sha256"`
	// Payload is the marshaled core.CachedRun.
	Payload json.RawMessage `json:"payload"`
}

// Options tunes a Store.
type Options struct {
	// Registry receives the cache counters (cache_hits, cache_misses,
	// cache_stores, cache_errors). Nil means no metrics.
	Registry *obs.Registry
}

// Store is a directory-backed core.RunCache. Safe for concurrent use by
// multiple goroutines in one process; concurrent processes sharing a
// directory are safe too (atomic writes, content-addressed names).
type Store struct {
	dir string

	hits   *obs.Counter
	misses *obs.Counter
	stores *obs.Counter
	errors *obs.Counter
}

// Open creates (if needed) and opens a cache directory. Stale temporaries
// from a crashed writer are removed; existing entries are not validated
// until read.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: open %s: %w", dir, err)
	}
	if _, err := obs.RemoveStaleTemps(dir); err != nil {
		return nil, fmt.Errorf("cache: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	if r := opts.Registry; r != nil {
		s.hits = r.Counter("cache_hits")
		s.misses = r.Counter("cache_misses")
		s.stores = r.Counter("cache_stores")
		s.errors = r.Counter("cache_errors")
	}
	return s, nil
}

// entryName maps a key to its file name. Keys are hex SHA-256 (64 chars);
// anything else is rejected to keep path handling trivial.
func entryName(key string) (string, bool) {
	if len(key) != 64 {
		return "", false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return key + ".json", true
}

func keyFromName(name string) (string, bool) {
	key, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return "", false
	}
	if _, ok := entryName(key); !ok {
		return "", false
	}
	return key, true
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Lookup implements core.RunCache. Any defect — missing file, bad JSON,
// schema or key mismatch, payload checksum failure — is a miss; defects in
// an existing file additionally count as cache_errors and delete the entry.
func (s *Store) Lookup(key string) (cr *core.CachedRun, ok bool) {
	defer func() {
		if ok {
			inc(s.hits)
		} else {
			inc(s.misses)
		}
	}()
	name, ok := entryName(key)
	if !ok {
		return nil, false
	}
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false
	}
	cr, err = decodeEntry(b, key)
	if err != nil {
		// The file exists but cannot be trusted: count it, drop it, miss.
		inc(s.errors)
		os.Remove(filepath.Join(s.dir, name))
		return nil, false
	}
	return cr, true
}

// decodeEntry checks an on-disk envelope (schema, declared key, payload
// checksum) and decodes its CachedRun payload.
func decodeEntry(b []byte, key string) (*core.CachedRun, error) {
	var fe fileEntry
	if err := json.Unmarshal(b, &fe); err != nil {
		return nil, fmt.Errorf("cache: entry %s: %w", key[:12], err)
	}
	if fe.Schema != fileSchema {
		return nil, fmt.Errorf("cache: entry %s: schema %d, want %d", key[:12], fe.Schema, fileSchema)
	}
	if fe.Key != key {
		return nil, fmt.Errorf("cache: entry %s: declares key %.12s", key[:12], fe.Key)
	}
	sum := sha256.Sum256(fe.Payload)
	if hex.EncodeToString(sum[:]) != fe.SHA256 {
		return nil, fmt.Errorf("cache: entry %s: payload checksum mismatch", key[:12])
	}
	var cr core.CachedRun
	if err := json.Unmarshal(fe.Payload, &cr); err != nil {
		return nil, fmt.Errorf("cache: entry %s: payload: %w", key[:12], err)
	}
	if cr.Result == nil {
		return nil, fmt.Errorf("cache: entry %s: no result", key[:12])
	}
	return &cr, nil
}

// Store implements core.RunCache: marshal, checksum, write atomically.
// Failures count as cache_errors and are otherwise swallowed — the caller
// already has its result.
func (s *Store) Store(key string, material []byte, cr *core.CachedRun) {
	name, ok := entryName(key)
	if !ok {
		inc(s.errors)
		return
	}
	payload, err := json.Marshal(cr)
	if err != nil {
		inc(s.errors)
		return
	}
	sum := sha256.Sum256(payload)
	fe := fileEntry{
		Schema:   fileSchema,
		Key:      key,
		Material: json.RawMessage(material),
		SHA256:   hex.EncodeToString(sum[:]),
		Payload:  payload,
	}
	b, err := json.Marshal(fe)
	if err != nil {
		inc(s.errors)
		return
	}
	if err := obs.AtomicWriteFile(filepath.Join(s.dir, name), b, 0o644); err != nil {
		inc(s.errors)
		return
	}
	inc(s.stores)
}

// Summary renders the store's state for a run manifest.
func (s *Store) Summary() *obs.CacheSummary {
	v := func(c *obs.Counter) uint64 {
		if c == nil {
			return 0
		}
		return c.Value()
	}
	return &obs.CacheSummary{
		Dir:    s.dir,
		Hits:   v(s.hits),
		Misses: v(s.misses),
		Stores: v(s.stores),
		Errors: v(s.errors),
	}
}
