package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/topology"
)

// paperSetups is how many times a run builds the machines and runs the
// warm-up cell; setup_s is their median.
const paperSetups = 31

// paperWarmup is the set-up's warm-up cell: on the largest machine, so
// the set-up builds the biggest memory system the passes use.
var paperWarmup = cell{Machine: "IG", Comp: "KNEM-Coll", Op: bench.OpBcast, Size: 1 * bench.MiB}

func paperComps() map[string]bench.Comp {
	comps := map[string]bench.Comp{}
	for _, c := range bench.PaperComponents() {
		comps[c.Name] = c
	}
	return comps
}

func paperConfig(machines map[string]*topology.Machine, comps map[string]bench.Comp, c cell) bench.Config {
	return bench.Config{
		Machine: machines[c.Machine], Comp: comps[c.Comp], Op: c.Op, Size: c.Size,
		Iters: 1, OffCache: true,
	}
}

// runPaper is the paper's IMB sweep: 200 cells (five components, five
// collectives, two sizes, four machines) measured uncached and one after
// another through bench.MeasureCtx, the path imb, tune search and
// make results pay for. An operation is one cell; a pass is the sweep.
func runPaper(r *run) error {
	refs, err := loadRefs("paper_sweep")
	if err != nil {
		return err
	}
	ctx := context.Background()
	cells := paperCells(r.seed)
	comps := paperComps()

	// Set-up: build the four machines and run the warm-up cell on them,
	// several times; the last set of machines serves the passes.
	var machines map[string]*topology.Machine
	var setups []float64
	for i := 0; i < paperSetups; i++ {
		t0 := time.Now()
		machines = map[string]*topology.Machine{}
		for _, name := range paperMachines {
			if machines[name] = topology.ByName(name); machines[name] == nil {
				return fmt.Errorf("unknown machine %s", name)
			}
		}
		if _, err := bench.MeasureCtx(ctx, paperConfig(machines, comps, paperWarmup)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	var (
		cellMs  []float64
		perCell = map[string][]float64{}
		byOp    = map[string][]float64{}
		copies  []float64
		bytes   []float64
		leases0 = bench.Shards().Leases
		go0     = readGo()
	)
	durs, err := r.passLoop(1, func(int) (bool, error) {
		var nCopies, nBytes int64
		for _, c := range cells {
			id := r.tr.begin("bench.MeasureCtx", r.passSpan)
			t := time.Now()
			res, err := bench.MeasureCtx(ctx, paperConfig(machines, comps, c))
			ms := time.Since(t).Seconds() * 1e3
			r.tr.end(id)
			if err != nil {
				r.attempt(fmt.Sprintf("%s: %v", c.key(), err), false)
				continue
			}
			cause := refs.check(c.key(), res.Seconds, &res.Stats)
			r.attempt(cause, cause != "")
			cellMs = append(cellMs, ms)
			perCell[c.key()] = append(perCell[c.key()], ms)
			byOp[string(c.Op)] = append(byOp[string(c.Op)], ms)
			nCopies += res.Stats.Copies
			nBytes += res.Stats.BytesCopied
		}
		copies = append(copies, float64(nCopies))
		bytes = append(bytes, float64(nBytes))
		return true, nil
	})
	if err != nil {
		return err
	}
	sweep := sumOfMedians(perCell) / 1e3
	r.set("sweep_s", sweep, len(durs))
	var cellMedians []float64
	for _, xs := range perCell {
		cellMedians = append(cellMedians, median(xs))
	}
	r.set("op_ms", median(cellMedians), len(cellMs))
	r.set("ops_per_s", float64(len(perCell))/sweep, len(durs))
	r.set("peak_mem_mb", median(r.peaks), len(r.peaks))
	if pct, v, ok := tailPercentile(cellMs); ok {
		r.note("cell_p%g_ms %.6f ms (n=%d)", pct, v, len(cellMs))
	}

	r.layer["bench.cell_p90_ms"] = quantile(cellMs, 0.9)
	for op, xs := range byOp {
		r.layer["bench.cell_ms."+op] = median(xs)
	}
	r.layer["memsim.copies"] = median(copies)
	r.layer["memsim.bytes_copied"] = median(bytes)
	r.layer["memsim.ns_per_copy"] = sweep * 1e9 / median(copies)
	r.layer["bench.shard_leases"] = float64(bench.Shards().Leases-leases0) / float64(len(durs))
	r.layer["bench.arena_bytes"] = float64(bench.Shards().ArenaBytes)
	r.setGo(readGo().sub(go0), float64(len(durs)))
	if r.traced {
		return r.probeLayers(machines["IG"], comps["KNEM-Coll"], 1*bench.MiB)
	}
	return nil
}
