package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/topology"
)

// recordRefs measures every cell a workload can check and writes the
// reference tables into dir (perfbench/refs when run from the
// repository root). Cluster cells are recorded through the same child
// processes a run uses, retried until one attempt completes.
func recordRefs(dir string) error {
	ctx := context.Background()
	comps := paperComps()
	machines := map[string]*topology.Machine{}
	for _, name := range paperMachines {
		machines[name] = topology.ByName(name)
	}

	paper := refTable{}
	for _, c := range paperCells(1) {
		res, err := bench.MeasureCtx(ctx, paperConfig(machines, comps, c))
		if err != nil {
			return err
		}
		if paper[c.key()], err = statsRef(res.Seconds, &res.Stats); err != nil {
			return err
		}
	}
	if err := writeRefs(dir, "paper_sweep", paper); err != nil {
		return err
	}

	simd := refTable{}
	for _, name := range simdMachines {
		m := topology.ByName(name)
		hot, disk, fresh := simdPools(name)
		for _, pool := range [][]cell{hot, disk, fresh} {
			for _, c := range pool {
				res, err := bench.MeasureCtx(ctx, bench.Config{Machine: m, Comp: comps[c.Comp], Op: c.Op, Size: c.Size, Iters: 1, OffCache: true})
				if err != nil {
					return err
				}
				simd[c.key()] = cellRef{Seconds: res.Seconds}
			}
		}
	}
	if err := writeRefs(dir, "simd_cells", simd); err != nil {
		return err
	}

	cluster := refTable{}
	for _, c := range clusterCellSet {
		for a := 1; ; a++ {
			res, _, cause := attemptChild(c.Name, false)
			if cause == "" && res.Identical {
				var err error
				if cluster[c.Name], err = statsRef(res.Seconds, &res.Stats); err != nil {
					return err
				}
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: record %s attempt %d: %s\n", c.Name, a, cause)
			if a == 2*maxAttempts {
				return fmt.Errorf("record %s: every attempt failed", c.Name)
			}
		}
	}
	return writeRefs(dir, "cluster_10k", cluster)
}
