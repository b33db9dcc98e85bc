package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/bench"
	"repro/internal/serve"
)

// The generators below turn a seed into a workload's inputs. The same
// seed always yields the same cells, batches and order (math/rand/v2's
// PCG is a fixed algorithm), so two runs with one seed send the program
// byte-identical input sequences.

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// paperMachines, paperOps and paperSizes span the paper's evaluation:
// four NUMA machines, five collectives, two message sizes (one below and
// one above the KNEM-Coll pipeline switch), all five components.
var (
	paperMachines = []string{"Zoot", "Dancer", "Saturn", "IG"}
	paperOps      = []bench.Op{bench.OpBcast, bench.OpGather, bench.OpScatter, bench.OpAllgather, bench.OpAlltoall}
	paperSizes    = []int64{64 * bench.KiB, 1 * bench.MiB}
)

// cell names one measurement cell on a named machine and component.
type cell struct {
	Machine string   `json:"machine"`
	Comp    string   `json:"comp"`
	Op      bench.Op `json:"op"`
	Size    int64    `json:"size"`
}

func (c cell) key() string { return fmt.Sprintf("%s/%s/%s/%d", c.Machine, c.Comp, c.Op, c.Size) }

// paperCells is the fixed 200-cell IMB sweep in a seed-permuted order.
func paperCells(seed int64) []cell {
	var cells []cell
	for _, m := range paperMachines {
		for _, c := range bench.PaperComponents() {
			for _, op := range paperOps {
				for _, sz := range paperSizes {
					cells = append(cells, cell{Machine: m, Comp: c.Name, Op: op, Size: sz})
				}
			}
		}
	}
	rng := newRNG(seed, 1)
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// clusterCell is one cell of the 10,240-rank cluster workload. Both run
// on one engine: the cells inside the intra-cell executor's envelope
// (rooted 16–64 KiB broadcast, barrier) are left out because that
// executor crashes at random on them (a concurrent map read and write in
// knem.(*Module).resolve), and a benchmark's failure count must repeat.
type clusterCell struct {
	Name string   `json:"name"`
	Op   bench.Op `json:"op"`
	Size int64    `json:"size"`
}

var clusterCellSet = []clusterCell{
	{"bcast_1MiB", bench.OpBcast, 1 * bench.MiB},
	{"gather_16KiB", bench.OpGather, 16 * bench.KiB},
}

func clusterCells(seed int64) []clusterCell {
	cells := append([]clusterCell(nil), clusterCellSet...)
	rng := newRNG(seed, 2)
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// The machines and sizes simd_mixed draws its cells from. The reference
// seconds of every cell in its pools are recorded, so any seed's response
// bodies can be checked.
var (
	simdMachines = []string{"Zoot", "Dancer"}
	simdSizes    = []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
)

// simdPools splits a machine's cells into hot, disk and fresh pools. The
// split is the same for every seed, so every run simulates the same
// fresh cells and a pass's work does not depend on the seed.
func simdPools(machine string) (hot, disk, fresh []cell) {
	var u []cell
	for _, c := range bench.PaperComponents() {
		for _, op := range paperOps {
			for _, sz := range simdSizes {
				u = append(u, cell{Machine: machine, Comp: c.Name, Op: op, Size: sz})
			}
		}
	}
	newRNG(0, 4).Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	batches := simdClients * simdBatchesPerConn / len(simdMachines)
	nd, nf := batches*simdDiskPerBatch, batches*(simdFreshPerBatch+1)
	return u[:simdHotPerMachine], u[simdHotPerMachine : simdHotPerMachine+nd], u[simdHotPerMachine+nd : simdHotPerMachine+nd+nf]
}

// Shape of one simd_mixed pass.
const (
	simdClients        = 2
	simdBatchesPerConn = 12
	simdHotPerMachine  = 3 // hot cells, repeated in every batch of their machine
	simdDiskPerBatch   = 2 // cells written to the disk memo before the pass
	simdFreshPerBatch  = 1 // cells no layer has seen, besides the duplicated one
	simdSweepEvery     = 4 // every fourth batch goes to POST /v1/sweep
)

// simdBatch is one request of a pass.
type simdBatch struct {
	Sweep bool               `json:"sweep"`
	Req   serve.BatchRequest `json:"req"`
}

// simdPlan is one pass of simd_mixed: the cells the set-up writes to the
// disk memo, and each client's batches in order.
type simdPlan struct {
	Disk    []cell        `json:"disk"`
	Clients [][]simdBatch `json:"clients"`
}

// simdOrders is how many seeded orders of the same batches a run cycles
// through, one per pass. Which request runs beside which, and so how
// long each waits, depends on the order; a run that measures many orders
// reports figures that depend on the host rather than on the seed.
const simdOrders = 16

func simdCellSpec(c cell) serve.CellSpec {
	return serve.CellSpec{Comp: c.Comp, Op: string(c.Op), Size: c.Size, NP: 0, Iters: 1, OffCache: true}
}

// newSimdPlans builds a pass's batches and deals them out in n seeded
// orders, drawn one after another from the seed's generator. A batch
// mixes its machine's hot cells (answered by the LRU after their first
// touch), two disk-memo cells, one fresh cell asked twice (the second
// copy is the singleflight candidate) and one more fresh cell. Which
// cells share a batch, and which client sends it, is fixed like the
// pools, so every seed and order sends the same requests from the same
// clients; the order decides their sequence, which go to POST /v1/sweep,
// and the order of the cells inside each request.
func newSimdPlans(seed int64, n int) []simdPlan {
	type batch struct {
		machine string
		dup     cell
		cells   []cell
	}
	var diskCells []cell
	var batches []batch
	for _, m := range simdMachines {
		hot, disk, fresh := simdPools(m)
		diskCells = append(diskCells, hot...)
		diskCells = append(diskCells, disk...)
		for len(fresh) > 0 {
			b := batch{machine: m, dup: fresh[0]}
			b.cells = append(b.cells, hot...)
			b.cells = append(b.cells, disk[:simdDiskPerBatch]...)
			b.cells = append(b.cells, fresh[1:simdFreshPerBatch+1]...)
			disk, fresh = disk[simdDiskPerBatch:], fresh[simdFreshPerBatch+1:]
			batches = append(batches, b)
		}
	}
	rng := newRNG(seed, 3)
	plans := make([]simdPlan, n)
	for p := range plans {
		// Batch i goes to client i % simdClients, so each client's
		// share of the work is also the same for every order.
		plan := simdPlan{Disk: diskCells, Clients: make([][]simdBatch, simdClients)}
		lists := make([][]batch, simdClients)
		for i, b := range batches {
			lists[i%simdClients] = append(lists[i%simdClients], b)
		}
		for c, list := range lists {
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			for k, b := range list {
				cells := append([]cell(nil), b.cells...)
				rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
				// The duplicate pair leads the batch. Its second copy
				// is answered by singleflight when it reaches the
				// runner while the first still simulates, else by the
				// memo or the LRU: the measured shares say which, on
				// the host that ran.
				req := serve.BatchRequest{Machine: b.machine}
				for _, cl := range append([]cell{b.dup, b.dup}, cells...) {
					req.Cells = append(req.Cells, simdCellSpec(cl))
				}
				plan.Clients[c] = append(plan.Clients[c], simdBatch{Sweep: k%simdSweepEvery == simdSweepEvery-1, Req: req})
			}
		}
		plans[p] = plan
	}
	return plans
}
