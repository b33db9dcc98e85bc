package bench

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/tune"
)

func memoTestConfig(m *topology.Machine, size int64) Config {
	return Config{
		Machine: m, Comp: KNEMColl(), Op: OpBcast, Size: size,
		Iters: 1, OffCache: true,
	}
}

// TestCacheHitByteIdentical is the core memoization contract: a cached
// replay is bit-for-bit the result the simulation would have produced —
// same Seconds, same Stats counters — and the hit/miss counters account
// for every Measure call.
func TestCacheHitByteIdentical(t *testing.T) {
	m := topology.Dancer()
	cfg := memoTestConfig(m, 64*KiB)

	DisableCache()
	fresh := MustMeasure(cfg)

	if err := EnableCache(""); err != nil {
		t.Fatal(err)
	}
	defer DisableCache()
	first := MustMeasure(cfg)
	second := MustMeasure(cfg)
	if hits, misses := CacheCounts(); hits != 1 || misses != 1 {
		t.Fatalf("counts = %d hits, %d misses; want 1, 1", hits, misses)
	}
	for _, r := range []Result{first, second} {
		if r.Seconds != fresh.Seconds || !reflect.DeepEqual(r.Stats, fresh.Stats) {
			t.Fatalf("cached result diverges from uncached:\nfresh  %v %+v\ncached %v %+v",
				fresh.Seconds, fresh.Stats, r.Seconds, r.Stats)
		}
	}
}

// TestDisableCacheResetsCounters: disabling the cache drops its counters
// with its entries, so a later reader (a stats endpoint, the -v summary)
// never reports hits left over from an earlier, disabled cache.
func TestDisableCacheResetsCounters(t *testing.T) {
	cfg := memoTestConfig(topology.Dancer(), 16*KiB)
	if err := EnableCache(""); err != nil {
		t.Fatal(err)
	}
	defer DisableCache()
	MustMeasure(cfg)
	MustMeasure(cfg)
	if hits, misses := CacheCounts(); hits != 1 || misses != 1 {
		t.Fatalf("enabled counts = %d hits, %d misses; want 1, 1", hits, misses)
	}
	DisableCache()
	if hits, misses := CacheCounts(); hits != 0 || misses != 0 || DedupedCount() != 0 {
		t.Fatalf("after DisableCache: %d hits, %d misses, %d deduped; want all 0",
			hits, misses, DedupedCount())
	}
	MustMeasure(cfg)
	if hits, misses := CacheCounts(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted %d hits, %d misses; want 0, 0", hits, misses)
	}
}

// TestCacheDiskRoundTrip drops the in-memory layer between two runs so the
// second is served from the persistent entry, as a separate process would
// be, and must replay identically.
func TestCacheDiskRoundTrip(t *testing.T) {
	m := topology.Dancer()
	cfg := memoTestConfig(m, 64*KiB)
	dir := t.TempDir()

	if err := EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	fresh := MustMeasure(cfg)
	DisableCache() // clears the in-memory layer, keeps disk

	if err := EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	defer DisableCache()
	replay := MustMeasure(cfg)
	if hits, misses := CacheCounts(); hits != 1 || misses != 0 {
		t.Fatalf("counts = %d hits, %d misses; want disk hit with no miss", hits, misses)
	}
	if replay.Seconds != fresh.Seconds || !reflect.DeepEqual(replay.Stats, fresh.Stats) {
		t.Fatalf("disk replay diverges: %v vs %v", replay.Seconds, fresh.Seconds)
	}
}

// TestCacheKeyExclusions pins what must never be cached or conflated:
// fault-injected runs, components without a canonical configuration
// encoding, and cells differing in size, iterations, or decision table.
func TestCacheKeyExclusions(t *testing.T) {
	m := topology.Dancer()
	cfg := memoTestConfig(m, 64*KiB)
	cfg.NP = m.NCores()

	if _, ok := memoKey(cfg, nil); !ok {
		t.Fatal("plain cell refused a key")
	}

	faulty := cfg
	faulty.Fault = &fault.Plan{}
	if _, ok := memoKey(faulty, nil); ok {
		t.Fatal("fault-injected cell got a cache key")
	}

	anon := cfg
	anon.Comp.Key = ""
	if _, ok := memoKey(anon, nil); ok {
		t.Fatal("component without canonical encoding got a cache key")
	}

	base, _ := memoKey(cfg, nil)
	bigger := cfg
	bigger.Size = 128 * KiB
	if k, _ := memoKey(bigger, nil); k == base {
		t.Fatal("size not in the key")
	}
	moreIters := cfg
	moreIters.Iters = 2
	if k, _ := memoKey(moreIters, nil); k == base {
		t.Fatal("iters not in the key")
	}
	dec := tune.NewDecider(&tune.Table{
		Version: tune.TableVersion, Machine: m.Name, Fingerprint: tune.Fingerprint(m),
		Cells: []tune.Cell{{
			Op: tune.OpBcast, NP: m.NCores(), Size: 64 * KiB,
			Choice: tune.Choice{Comp: "KNEM-Coll"}, Seconds: 1e-4,
		}},
	})
	if k, _ := memoKey(cfg, dec); k == base {
		t.Fatal("decision table not in the key")
	}
}

// TestCacheParallelSweep runs a sweep with duplicated cells through the
// parallel runner with memoization on: under `go test -race` this proves
// concurrent lookups and stores are race-free, and every returned result
// must still equal the sequential uncached measurement.
func TestCacheParallelSweep(t *testing.T) {
	m := topology.Dancer()
	var cfgs []Config
	for i := 0; i < 3; i++ { // duplicates force hit/store interleaving
		for _, sz := range []int64{64 * KiB, 256 * KiB} {
			cfgs = append(cfgs, memoTestConfig(m, sz))
		}
	}

	DisableCache()
	want := MeasureAll(cfgs)

	if err := EnableCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer DisableCache()
	SetParallel(4)
	defer SetParallel(1)
	got := MeasureAll(cfgs)
	for i := range want {
		if got[i].Seconds != want[i].Seconds || !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Fatalf("cell %d diverges under parallel cached sweep: %v vs %v",
				i, got[i].Seconds, want[i].Seconds)
		}
	}
	hits, misses := CacheCounts()
	if hits+misses != int64(len(cfgs)) || misses < 2 {
		t.Fatalf("counts = %d hits, %d misses over %d cells", hits, misses, len(cfgs))
	}
}
