package memsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// constructAllocs counts the heap objects allocated by compiling a
// switched cluster of the given number of Dancer nodes and building its
// Net.
func constructAllocs(t *testing.T, nodes int) float64 {
	cfg := topology.ClusterConfig{
		Name:   fmt.Sprintf("syn%d", nodes),
		Switch: &topology.SwitchSpec{Name: "sw", BW: 1.25e9, Lat: 2e-6},
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "Dancer"})
	}
	eng := sim.NewEngine()
	return testing.AllocsPerRun(3, func() {
		cl, err := topology.CompileCluster(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		New(eng, cl.Global, nil)
	})
}

// TestConstructionScalesLinearly guards against superlinear construction:
// quadrupling the node count may at most about quadruple the objects that
// CompileCluster plus New allocate. Objects, not bytes, are counted: the
// route tables are n² but pointer-free flat slices, a constant number of
// objects, while per-vertex-pair link slices would grow with nodes².
func TestConstructionScalesLinearly(t *testing.T) {
	small, large := constructAllocs(t, 8), constructAllocs(t, 32)
	t.Logf("allocated objects: 8 nodes %.0f, 32 nodes %.0f (%.2fx)", small, large, large/small)
	if large > 4.5*small {
		t.Fatalf("32-node construction allocates %.0f objects, %.2fx the 8-node %.0f; want at most 4.5x", large, large/small, small)
	}
}
