package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// FuzzFaultSchedule drives the KNEM protocols under arbitrary fault plans:
// whatever the plan fails, every collective must deliver the fault-free
// payload, leave no region registered, and replay to the same simulated
// time and counters.
func FuzzFaultSchedule(f *testing.F) {
	machines := []*topology.Machine{topology.Dancer(), topology.Saturn(), topology.IG(), dmaMachine()}
	// mach, np, op, mode (bits: 0-1 Mode, 2 ring, 3-4 DMADepth, 5 LazySync),
	// blkKiB, seed, createEvery, invalidateEvery, dmaFailEvery,
	// copyTransient, createTransient, retries, budget (pages)
	f.Add(uint8(0), uint8(8), uint8(0), uint8(1), uint8(64), int64(1), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(uint8(0), uint8(8), uint8(0), uint8(2), uint8(64), int64(2), uint8(3), uint8(5), uint8(0), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(uint8(2), uint8(12), uint8(0), uint8(3), uint8(48), int64(3), uint8(0), uint8(4), uint8(0), uint8(40), uint8(40), uint8(2), uint16(0))
	f.Add(uint8(1), uint8(16), uint8(1), uint8(0), uint8(32), int64(4), uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), uint8(1), uint16(40))
	f.Add(uint8(0), uint8(8), uint8(2), uint8(0), uint8(40), int64(5), uint8(0), uint8(3), uint8(0), uint8(30), uint8(0), uint8(2), uint16(0))
	f.Add(uint8(0), uint8(8), uint8(3), uint8(4), uint8(32), int64(6), uint8(3), uint8(4), uint8(0), uint8(0), uint8(0), uint8(3), uint16(150))
	f.Add(uint8(0), uint8(7), uint8(3), uint8(0), uint8(32), int64(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(uint8(3), uint8(8), uint8(4), uint8(16), uint8(64), int64(8), uint8(2), uint8(5), uint8(2), uint8(20), uint8(20), uint8(2), uint16(150))
	f.Add(uint8(3), uint8(8), uint8(4), uint8(24), uint8(64), int64(9), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(uint8(0), uint8(8), uint8(0), uint8(33), uint8(64), int64(10), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(uint8(0), uint8(8), uint8(1), uint8(34), uint8(64), int64(11), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Fuzz(func(t *testing.T, mach, np, op, mode, blkKiB uint8, seed int64,
		createEvery, invalidateEvery, dmaFailEvery, copyTransient, createTransient, retries uint8, budget uint16) {
		m := machines[int(mach)%len(machines)]
		n := max(2, int(np)%(min(m.NCores(), 16)+1))
		blk := int64(max(1, int(blkKiB)%97)) << 10
		cfg := Config{
			Mode:          Mode(mode % 4),
			RingAllgather: mode&4 != 0,
			DMADepth:      int(mode>>3) % 4,
			LazySync:      mode&32 != 0,
		}
		plan := &fault.Plan{
			Seed:             seed,
			CreateFailEvery:  int(createEvery % 8),
			InvalidateEvery:  int(invalidateEvery % 10),
			DMAFailEvery:     int(dmaFailEvery % 5),
			CopyTransient:    float64(copyTransient%64) / 128,
			CreateTransient:  float64(createTransient%64) / 128,
			MaxRetries:       1 + int(retries%3),
			PinnedPageBudget: int64(budget % 2048),
		}
		run := func() (float64, string) {
			var tEnd float64
			w := runFault(t, m, n, cfg, plan, func(r *mpi.Rank) {
				for it := 0; it < 2; it++ {
					fuzzOp(t, r, int(op%5), blk, it)
				}
				r.Barrier() // drains any lazily deferred region
				tEnd = r.Now()
			})
			if k := w.Knem().ActiveRegions(); k != 0 {
				t.Fatalf("%d regions leaked", k)
			}
			return tEnd, w.Stats().String()
		}
		t1, s1 := run()
		t2, s2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("replay diverged:\n t=%g vs %g\n %s\n vs\n %s", t1, t2, s1, s2)
		}
	})
}

// fuzzOp runs one collective of kind op (bcast, scatter, gather,
// allgather, alltoall) with blk-byte blocks and checks every byte
// delivered to this rank against the pattern its source wrote.
func fuzzOp(t *testing.T, r *mpi.Rank, op int, blk int64, it int) {
	p := r.Size()
	me := r.ID()
	root := it % p
	pat := func(src int, i int64) byte { return fpat(src*7+it, i) }
	fill := func(b *memsim.Buffer, src func(i int64) int, off func(i int64) int64) {
		for i := range b.Data {
			b.Data[i] = pat(src(int64(i)), off(int64(i)))
		}
	}
	check := func(what string, got []byte, src int, off int64) {
		for i, b := range got {
			if want := pat(src, off+int64(i)); b != want {
				t.Fatalf("%s: rank %d byte %d from %d = %d, want %d", what, me, i, src, b, want)
			}
		}
	}
	byBlock := func(i int64) int { return int(i / blk) }
	inBlock := func(i int64) int64 { return i % blk }
	mine := func(int64) int { return me }
	same := func(i int64) int64 { return i }
	switch op {
	case 0:
		b := r.Alloc(blk)
		if me == root {
			fill(b, func(int64) int { return root }, same)
		}
		r.Bcast(b.Whole(), root)
		check("bcast", b.Data, root, 0)
	case 1:
		var send memsim.View
		if me == root {
			sb := r.Alloc(int64(p) * blk)
			fill(sb, byBlock, inBlock)
			send = sb.Whole()
		}
		recv := r.Alloc(blk)
		r.Scatter(send, recv.Whole(), root)
		check("scatter", recv.Data, me, 0)
	case 2:
		send := r.Alloc(blk)
		fill(send, mine, same)
		var recv memsim.View
		var rb *memsim.Buffer
		if me == root {
			rb = r.Alloc(int64(p) * blk)
			recv = rb.Whole()
		}
		r.Gather(send.Whole(), recv, root)
		if rb != nil {
			for src := 0; src < p; src++ {
				check("gather", rb.Data[int64(src)*blk:int64(src+1)*blk], src, 0)
			}
		}
	case 3:
		send := r.Alloc(blk)
		fill(send, mine, same)
		recv := r.Alloc(int64(p) * blk)
		r.Allgather(send.Whole(), recv.Whole())
		for src := 0; src < p; src++ {
			check("allgather", recv.Data[int64(src)*blk:int64(src+1)*blk], src, 0)
		}
	case 4:
		// Block j of rank s carries pattern (s*p+j): every pair distinct.
		send := r.Alloc(int64(p) * blk)
		fill(send, func(i int64) int { return me*p + byBlock(i) }, inBlock)
		recv := r.Alloc(int64(p) * blk)
		r.Alltoall(send.Whole(), recv.Whole())
		for src := 0; src < p; src++ {
			check("alltoall", recv.Data[int64(src)*blk:int64(src+1)*blk], src*p+me, 0)
		}
	}
}
