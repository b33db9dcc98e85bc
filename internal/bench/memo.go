package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/tune"
)

// Run memoization: the simulator is deterministic, so a measurement cell is
// a pure function of its inputs. Measure therefore keys each cell by
// everything that shapes its result — simulator generation, machine
// fingerprint, canonical component configuration, operation, message size,
// nranks, iteration count, off-cache flag, root, and the content hash of
// any tuned decision table steering the run — and replays the recorded
// (seconds, stats) pair instead of re-simulating when the key was seen
// before. Successive-halving tuner rounds, repeated figure regenerations,
// and back-to-back `tune search` / `imb` invocations hit the cache instead
// of re-running identical simulations.
//
// The cache is content-addressed: the in-memory layer maps the full key
// string, and the optional disk layer stores one JSON entry per key under
// sha256(key), with the key recorded inside the entry so a hash collision
// or truncated file is detected and treated as a miss. Entries are written
// via create-temp + rename, so concurrent cells — and concurrent
// processes sharing a cache directory — never observe partial writes.
// Faulty runs (Config.Fault != nil) and components without a canonical
// configuration encoding (Comp.Key == "") are never cached.

// simFingerprint names the current simulated-behavior generation and is
// part of every cache key. Bump it whenever a change to the simulator or
// the protocol stack (internal/sim, internal/memsim, internal/mpi,
// internal/knem, internal/core, internal/coll/...) alters any simulated
// timestamp or counter, so stale entries can never leak into new results.
const simFingerprint = "sim/g3-partition"

// cacheSchema versions the on-disk entry format.
const cacheSchema = "simcache/v1"

var memo struct {
	enabled atomic.Bool
	mu      sync.Mutex // guards dir
	dir     string
	mem     sync.Map // key string -> memoEntry
	hits    atomic.Int64
	misses  atomic.Int64
	deduped atomic.Int64
}

// memoEntry is one cached cell, also the on-disk JSON document. Seconds
// and the Stats counters round-trip exactly through encoding/json
// (shortest-representation floats, integer counters), so a cache hit is
// bit-for-bit identical to the simulation it replaces.
type memoEntry struct {
	Schema  string      `json:"schema"`
	Key     string      `json:"key"`
	Seconds float64     `json:"seconds"`
	Stats   trace.Stats `json:"stats"`
}

// EnableCache turns on run memoization. dir is the persistent cache
// directory shared across processes; "" keeps the cache in-memory only
// (per process). Missing parents are created, and writability is probed up
// front: per-entry writes are deliberately best-effort and silent (they
// cost speed, not results), so a directory that can never accept a write
// must be rejected here, once, with one clear error — not discovered late
// as a per-shard no-op. Enabling resets the hit/miss/dedup counters.
func EnableCache(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("bench: cache dir %s: %v", dir, err)
		}
		probe, err := os.CreateTemp(dir, ".probe-*")
		if err != nil {
			return fmt.Errorf("bench: cache dir %s is not writable: %v", dir, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	memo.mu.Lock()
	memo.dir = dir
	memo.mu.Unlock()
	memo.hits.Store(0)
	memo.misses.Store(0)
	memo.deduped.Store(0)
	memo.enabled.Store(true)
	return nil
}

// DisableCache turns run memoization off (the default). The in-memory
// entries and the hit/miss/dedup counters are dropped, so a disabled
// cache reports no hits; disk entries are kept for future runs.
func DisableCache() {
	memo.enabled.Store(false)
	memo.mem.Clear()
	memo.hits.Store(0)
	memo.misses.Store(0)
	memo.deduped.Store(0)
}

// EnableDefaultCache turns on run memoization (unless noCache), using dir
// or a per-user default directory; it reports whether the cache is on.
// An explicitly requested directory that cannot be created or written is
// an error the caller must fail fast on — the user asked for exactly that
// path, so silently degrading would hide a misconfiguration. Only the
// implicit per-user default degrades to an in-process cache with a
// warning: there the cache trades speed, never results. This is the
// shared flag plumbing behind the -no-cache/-cache-dir flags of imb,
// tune, asp, and simd.
func EnableDefaultCache(prog string, noCache bool, dir string) (bool, error) {
	if noCache {
		return false, nil
	}
	if dir != "" {
		if err := EnableCache(dir); err != nil {
			return false, err
		}
		return true, nil
	}
	if base, err := os.UserCacheDir(); err == nil {
		dir = filepath.Join(base, "repro-sim")
	}
	if err := EnableCache(dir); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v (continuing with an in-memory cache)\n", prog, err)
		EnableCache("")
	}
	return true, nil
}

// ReportCacheCounts prints the hit/miss summary the cache-enabled commands
// emit on exit.
func ReportCacheCounts(prog string) {
	hits, misses := CacheCounts()
	fmt.Fprintf(os.Stderr, "%s: sim cache: %d hits, %d misses\n", prog, hits, misses)
}

// CacheCounts returns how many Measure calls were served from the cache
// and how many had to simulate since the cache was last enabled. Calls
// that waited on an identical in-flight cell (singleflight) count as hits:
// they were served without a simulation of their own.
func CacheCounts() (hits, misses int64) {
	return memo.hits.Load(), memo.misses.Load()
}

// DedupedCount returns how many Measure calls were deduplicated against an
// identical in-flight cell since the cache was last enabled — each one a
// simulation the singleflight layer avoided without touching disk.
func DedupedCount() int64 { return memo.deduped.Load() }

// memoKey builds cfg's cache key. ok is false when the cell must not be
// cached: a fault plan is active, or the component carries no canonical
// configuration encoding. cfg must already have NP and Iters defaulted,
// and dec must be the effective decider (explicit or global).
func memoKey(cfg Config, dec *tune.Decider) (string, bool) {
	if cfg.Fault != nil || cfg.Comp.Key == "" {
		return "", false
	}
	decKey := "none"
	if dec != nil {
		decKey = dec.Table().ContentHash()
	}
	return fmt.Sprintf("%s|%s|m=%s|comp=%s|btl=%d|knemmin=%d|op=%s|size=%d|np=%d|iters=%d|oc=%t|root=%d|dec=%s",
		cacheSchema, simFingerprint, tune.Fingerprint(cfg.Machine), cfg.Comp.Key,
		cfg.Comp.BTL, cfg.Comp.KnemMin, cfg.Op, cfg.Size, cfg.NP, cfg.Iters,
		cfg.OffCache, cfg.Root, decKey), true
}

// entryPath shards entries by the first hash byte to keep directories flat.
func entryPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	h := fmt.Sprintf("%x", sum)
	return filepath.Join(dir, h[:2], h+".json")
}

// memoPeek consults the in-memory layer, then disk, without touching the
// hit/miss counters — Measure accounts each of its calls exactly once
// after the singleflight layer has resolved who simulates. Disk hits are
// promoted to memory. Any read, decode, or key mismatch problem is a miss.
func memoPeek(key string) (memoEntry, bool) {
	if v, ok := memo.mem.Load(key); ok {
		return v.(memoEntry), true
	}
	memo.mu.Lock()
	dir := memo.dir
	memo.mu.Unlock()
	if dir != "" {
		data, err := os.ReadFile(entryPath(dir, key))
		if err == nil {
			var ent memoEntry
			if json.Unmarshal(data, &ent) == nil && ent.Schema == cacheSchema && ent.Key == key {
				memo.mem.Store(key, ent)
				return ent, true
			}
		}
	}
	return memoEntry{}, false
}

// memoStore records a freshly simulated cell. Disk persistence is
// best-effort: a full or read-only cache directory costs future speed, not
// correctness, so write errors are ignored.
func memoStore(key string, ent memoEntry) {
	ent.Schema, ent.Key = cacheSchema, key
	memo.mem.Store(key, ent)
	if data, err := json.Marshal(&ent); err == nil {
		writeEntryFile(key, data)
	}
}

// writeEntryFile persists one encoded entry under the disk layer's path for
// key, via create-temp + rename so concurrent writers never leave partial
// files. No-op without a disk directory; errors cost speed, not results.
func writeEntryFile(key string, data []byte) {
	memo.mu.Lock()
	dir := memo.dir
	memo.mu.Unlock()
	if dir == "" {
		return
	}
	path := entryPath(dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// rawMemoEntry carries a memoized cell whose payload is not a Measure
// (seconds, stats) pair — e.g. the ASP application cells of Table I. Same
// key discipline, disk layout, and atomicity as memoEntry.
type rawMemoEntry struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	Value  json.RawMessage `json:"value"`
}

// memoLookupJSON consults the cache for key, decoding the payload into
// out; it reports whether the cell was served from the cache.
func memoLookupJSON(key string, out any) bool {
	if !memo.enabled.Load() {
		return false
	}
	if v, ok := memo.mem.Load(key); ok {
		if ent, ok := v.(rawMemoEntry); ok && json.Unmarshal(ent.Value, out) == nil {
			memo.hits.Add(1)
			return true
		}
	}
	memo.mu.Lock()
	dir := memo.dir
	memo.mu.Unlock()
	if dir != "" {
		data, err := os.ReadFile(entryPath(dir, key))
		if err == nil {
			var ent rawMemoEntry
			if json.Unmarshal(data, &ent) == nil && ent.Schema == cacheSchema && ent.Key == key &&
				json.Unmarshal(ent.Value, out) == nil {
				memo.mem.Store(key, ent)
				memo.hits.Add(1)
				return true
			}
		}
	}
	memo.misses.Add(1)
	return false
}

// memoStoreJSON records a freshly computed non-Measure cell.
func memoStoreJSON(key string, v any) {
	if !memo.enabled.Load() {
		return
	}
	value, err := json.Marshal(v)
	if err != nil {
		return
	}
	ent := rawMemoEntry{Schema: cacheSchema, Key: key, Value: value}
	memo.mem.Store(key, ent)
	if data, err := json.Marshal(&ent); err == nil {
		writeEntryFile(key, data)
	}
}
