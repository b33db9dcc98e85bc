package bench

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// The simulator is bit-for-bit deterministic, so a handful of exact pinned
// values catch unintended model drift (an accidental change to a bandwidth
// constant, a protocol cost, routing, or the cache model shows up here
// immediately). When a change is intentional, regenerate the values:
//
//	go test ./internal/bench -run TestGolden -v   # prints got values on failure
//
// Machine "bpar" is the 3-node testCluster at full occupancy; its rows
// also pin every counter (Stats.String, warm-up included, as cluster cells
// keep it), because cluster cells exercise the fabric routes, coherence
// islands and cross-node flows no single machine does.
func TestGoldenValues(t *testing.T) {
	golden := []struct {
		machine string
		comp    string
		op      Op
		size    int64
		want    float64
		stats   string // Stats.String(); when set, Seconds must match exactly
	}{
		{"Zoot", "Tuned-SM", OpBcast, 1048576, 7.806022928e-03, ""},
		{"Zoot", "KNEM-Coll", OpBcast, 1048576, 4.927240000e-03, ""},
		{"Dancer", "MPICH2-KNEM", OpGather, 262144, 4.991823333e-04, ""},
		{"Saturn", "Tuned-KNEM", OpAllgather, 65536, 1.132385067e-03, ""},
		{"IG", "KNEM-Coll", OpAlltoallv, 131072, 1.036342914e-02, ""},
		{"IG", "MPICH2-SM", OpScatter, 524288, 1.045690320e-02, ""},
		{"bpar", "Hier-Tree", OpBcast, 16384, 5.1483288888888893e-05,
			"copies=50 bytes=819200 cacheHits=28 cacheMisses=22 traps=54 regs=6 ctrl=292 a/link=131072 b/link=131072 c/link=131072 cache0=262144 cache2=229376 cache4=229376 core0=65536 core1=32768 core10=32768 core11=32768 core12=32768 core13=32768 core14=32768 core15=32768 core16=32768 core17=32768 core18=32768 core19=32768 core2=32768 core20=32768 core21=32768 core22=32768 core23=32768 core3=32768 core4=32768 core5=32768 core6=32768 core7=32768 core8=32768 core9=32768 mem0=131072 mem1=131072 mem2=327680 mem3=131072 mem4=327680 mem5=131072 tor/a=65536 tor/b=32768 tor/c=32768"},
		{"bpar", "Hier-Tree", OpBcast, 32768, 8.8666577777777778e-05,
			"copies=50 bytes=1638400 cacheHits=28 cacheMisses=22 traps=54 regs=6 ctrl=292 a/link=262144 b/link=262144 c/link=262144 cache0=524288 cache2=458752 cache4=458752 core0=131072 core1=65536 core10=65536 core11=65536 core12=65536 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=65536 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 core8=65536 core9=65536 mem0=262144 mem1=262144 mem2=655360 mem3=262144 mem4=655360 mem5=262144 tor/a=131072 tor/b=65536 tor/c=65536"},
		{"bpar", "Hier-Tree", OpBcast, 65536, 1.6303315555555551e-04,
			"copies=50 bytes=3276800 cacheHits=28 cacheMisses=22 traps=54 regs=6 ctrl=292 a/link=524288 b/link=524288 c/link=524288 cache0=1048576 cache2=917504 cache4=917504 core0=262144 core1=131072 core10=131072 core11=131072 core12=131072 core13=131072 core14=131072 core15=131072 core16=131072 core17=131072 core18=131072 core19=131072 core2=131072 core20=131072 core21=131072 core22=131072 core23=131072 core3=131072 core4=131072 core5=131072 core6=131072 core7=131072 core8=131072 core9=131072 mem0=524288 mem1=524288 mem2=1310720 mem3=524288 mem4=1310720 mem5=524288 tor/a=262144 tor/b=131072 tor/c=131072"},
		{"bpar", "Hier-Tree", OpBarrier, 0, 9.1999999999999932e-06,
			"copies=0 bytes=0 cacheHits=0 cacheMisses=0 traps=0 regs=0 ctrl=288"},
	}
	cl := testCluster(t, 3)
	comps := map[string]Comp{
		"Tuned-SM":    TunedSM(),
		"Tuned-KNEM":  TunedKNEM(),
		"MPICH2-SM":   MPICH2SM(),
		"MPICH2-KNEM": MPICH2KNEM(),
		"KNEM-Coll":   KNEMColl(),
		"Hier-Tree":   Hier(cl),
	}
	for _, g := range golden {
		m := cl.Global
		if g.machine != "bpar" {
			m = topology.ByName(g.machine)
		}
		res := MustMeasure(Config{
			Machine: m, Comp: comps[g.comp],
			Op: g.op, Size: g.size, Iters: 1, OffCache: true,
		})
		tol := 1e-9 * g.want
		if g.stats != "" {
			tol = 0
		}
		if math.Abs(res.Seconds-g.want) > tol {
			t.Errorf("%s/%s/%s/%d = %.17g, golden %.17g — model drift (regenerate if intentional)",
				g.machine, g.comp, g.op, g.size, res.Seconds, g.want)
		}
		if got := res.Stats.String(); g.stats != "" && got != g.stats {
			t.Errorf("%s/%s/%s/%d stats drift:\n got  %s\n want %s", g.machine, g.comp, g.op, g.size, got, g.stats)
		}
	}
}

// Determinism: the same configuration measured twice gives the identical
// simulated time.
func TestMeasurementDeterminism(t *testing.T) {
	cfg := Config{
		Machine: topology.IG(), Comp: KNEMColl(), Op: OpBcast,
		Size: 1 << 20, Iters: 2, OffCache: true,
	}
	a := MustMeasure(cfg)
	b := MustMeasure(cfg)
	if a.Seconds != b.Seconds {
		t.Fatalf("nondeterministic: %.12e vs %.12e", a.Seconds, b.Seconds)
	}
}

// testCluster compiles a cluster of `nodes` synthetic 8-core machines
// behind one switch.
func testCluster(t testing.TB, nodes int) *topology.Cluster {
	t.Helper()
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 4,
		BusBW: 16e9, LinkBW: 11e9,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Dancer().Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   "bpar",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 1.25e9, Lat: 2e-6},
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: string(rune('a' + i)), Machine: "box"})
	}
	cl, err := topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	return cl
}
