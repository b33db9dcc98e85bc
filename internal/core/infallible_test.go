package core_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
)

// A plan that cannot fail a KNEM call (Injector.CanFail is false) must run
// exactly the fault-free protocol: same simulated time to the bit and the
// same counters as the run without any plan. Otherwise a straggler or a
// link-slowdown experiment would also charge a protocol switch to the
// fault it models.
func TestInfalliblePlanRunsFaultFreeProtocol(t *testing.T) {
	dma := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 4,
		BusBW: 16e9, LinkBW: 11e9, BoardLinkBW: 1,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Spec{
			CoreCopyBW: 4.5e9, KernelTrap: 100e-9, CopySetup: 500e-9,
			PinPerPage: 40e-9, CtrlLatency: 300e-9, Flops: 5.5e9,
			DMABw: 6e9,
		},
	})
	cells := []struct {
		name string
		mach *topology.Machine
		cfg  core.Config
		op   bench.Op
	}{
		{"linear", topology.Dancer(), core.Config{Mode: core.ModeLinear}, bench.OpBcast},
		{"hierarchical", topology.Dancer(), core.Config{Mode: core.ModeHierarchical}, bench.OpBcast},
		{"no-pipeline", topology.Dancer(), core.Config{Mode: core.ModeHierarchical, NoPipeline: true}, bench.OpBcast},
		{"multilevel", topology.IG(), core.Config{Mode: core.ModeMultiLevel}, bench.OpBcast},
		{"lazy", topology.Dancer(), core.Config{Mode: core.ModeLinear, LazySync: true}, bench.OpBcast},
		{"scatter", topology.Dancer(), core.Config{}, bench.OpScatter},
		{"gather", topology.Dancer(), core.Config{}, bench.OpGather},
		{"alltoall", dma, core.Config{}, bench.OpAlltoall},
		{"alltoall-dma", dma, core.Config{DMADepth: 2}, bench.OpAlltoall},
		{"allgather-ring", topology.Dancer(), core.Config{RingAllgather: true}, bench.OpAllgather},
		{"allgather", topology.Dancer(), core.Config{}, bench.OpAllgather},
	}
	for _, c := range cells {
		plans := []struct {
			name string
			plan *fault.Plan
		}{
			{"link-1.0", &fault.Plan{LinkSlowdown: map[string]float64{c.mach.Links[0].Name: 1.0}}},
			{"straggler-0", &fault.Plan{Straggler: map[int]float64{1: 0}}},
			{"leader-down-unused", &fault.Plan{LeaderDown: map[int]bool{c.mach.NCores() + 5: true}}},
			// DMAStall 0 means the 10 µs default, a real delay; a period
			// the run never reaches keeps the stall entry in the plan
			// without firing it.
			{"dma-stall-unreached", &fault.Plan{DMAStallEvery: 1 << 30}},
		}
		measure := func(plan *fault.Plan) bench.Result {
			return bench.MustMeasure(bench.Config{
				Machine: c.mach, Comp: bench.KNEMCollCfg("KNEM-"+c.name, c.cfg),
				Op: c.op, Size: 64 << 10, Iters: 1, OffCache: true, Fault: plan,
			})
		}
		base := measure(nil)
		for _, pl := range plans {
			got := measure(pl.plan)
			if math.Float64bits(got.Seconds) != math.Float64bits(base.Seconds) {
				t.Errorf("%s under %s: %.17g s, fault-free %.17g s", c.name, pl.name, got.Seconds, base.Seconds)
			}
			if g, w := got.Stats.String(), base.Stats.String(); g != w {
				t.Errorf("%s under %s: stats\n got  %s\n want %s", c.name, pl.name, g, w)
			}
		}
	}
}
