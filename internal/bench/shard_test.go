package bench

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

// TestShardReuseBitIdentical pins the sharded runner's contract: repeated
// Measure calls — the later ones running on recycled engine/net shards —
// return bit-identical timings and counters, sequentially and under a
// parallel sweep. The cache is kept off so every cell truly simulates.
func TestShardReuseBitIdentical(t *testing.T) {
	DisableCache()
	cfg := Config{
		Machine: topology.IG(),
		Comp:    KNEMColl(),
		Op:      OpBcast,
		Size:    256 * KiB,
		Iters:   1,
	}
	want := MustMeasure(cfg)
	for i := 0; i < 3; i++ {
		got := MustMeasure(cfg)
		if got.Seconds != want.Seconds {
			t.Fatalf("rerun %d: %.17g s, first run %.17g s", i, got.Seconds, want.Seconds)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("rerun %d: stats diverged:\ngot   %v\nfirst %v", i, got.Stats.String(), want.Stats.String())
		}
	}

	// A parallel sweep mixing machines must agree cell-for-cell with the
	// sequential run (shards are per-worker, never shared between live
	// cells, and reused across machines within a worker).
	cfgs := []Config{
		cfg,
		{Machine: topology.Dancer(), Comp: TunedSM(), Op: OpAllgather, Size: 64 * KiB, Iters: 1},
		{Machine: topology.IG(), Comp: MPICH2KNEM(), Op: OpScatter, Size: 128 * KiB, Iters: 1},
		cfg,
	}
	seq := MeasureAll(cfgs)
	old := Parallel()
	SetParallel(4)
	par := MeasureAll(cfgs)
	SetParallel(old)
	for i := range seq {
		if seq[i].Seconds != par[i].Seconds || !reflect.DeepEqual(seq[i].Stats, par[i].Stats) {
			t.Fatalf("cell %d: parallel run diverged from sequential: %.17g vs %.17g",
				i, par[i].Seconds, seq[i].Seconds)
		}
	}
	if seq[0].Seconds != want.Seconds {
		t.Fatalf("sweep cell 0 %.17g s != direct measure %.17g s", seq[0].Seconds, want.Seconds)
	}
}

// TestClusterCellsShareCompiledCluster runs the cluster cells of the golden
// table concurrently on one compiled cluster, as a server does once it
// resolves a machine a single time: the cluster is read-only after
// compilation, so every cell, on a fresh shard and again on a reused one,
// must match its sequential run bit for bit (the race detector covers the
// sharing in -race runs).
func TestClusterCellsShareCompiledCluster(t *testing.T) {
	DisableCache()
	cl := testCluster(t, 3)
	cells := []struct {
		name string
		op   Op
		size int64
	}{
		{"barrier", OpBarrier, 0},
		{"bcast16k", OpBcast, 16 * KiB},
		{"bcast32k", OpBcast, 32 * KiB},
		{"bcast64k", OpBcast, 64 * KiB},
	}
	cfg := func(op Op, size int64) Config {
		return Config{Machine: cl.Global, Comp: Hier(cl), Op: op, Size: size, Iters: 1, OffCache: true}
	}
	want := make([]Result, len(cells))
	for i, c := range cells {
		want[i] = MustMeasure(cfg(c.op, c.size))
	}
	for i, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for pass := 0; pass < 2; pass++ {
				got := MustMeasure(cfg(c.op, c.size))
				if got.Seconds != want[i].Seconds || !reflect.DeepEqual(got.Stats, want[i].Stats) {
					t.Fatalf("pass %d diverges from the sequential run:\ngot  %.17g %s\nwant %.17g %s",
						pass, got.Seconds, got.Stats.String(), want[i].Seconds, want[i].Stats.String())
				}
			}
		})
	}
}
