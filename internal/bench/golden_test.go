package bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
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
//
// The KNEM-* rows pin every region protocol of internal/core — each
// broadcast topology, LazySync, scatter, gather, alltoall with and without
// DMA offload (machine "dma"), and both allgather algorithms — fault-free
// and under each plan that fails KNEM calls, so a protocol refactor that
// moves one event or counter shows up here.
func TestGoldenValues(t *testing.T) {
	var (
		planCreate     = &fault.Plan{CreateFailEvery: 2}
		planCreate3    = &fault.Plan{CreateFailEvery: 3}
		planInvalidate = &fault.Plan{InvalidateEvery: 5}
		planTransient  = &fault.Plan{Seed: 7, CopyTransient: 0.4, CreateTransient: 0.4, MaxRetries: 2}
		planBudget     = &fault.Plan{PinnedPageBudget: 24}
		planBudgetWide = &fault.Plan{PinnedPageBudget: 150}
		planDMA        = &fault.Plan{DMAFailEvery: 2}
	)
	golden := []struct {
		machine string
		comp    string
		op      Op
		size    int64
		fault   *fault.Plan
		want    float64
		stats   string // Stats.String(); when set, Seconds must match exactly
	}{
		{"Zoot", "Tuned-SM", OpBcast, 1048576, nil, 7.806022928e-03, ""},
		{"Zoot", "KNEM-Coll", OpBcast, 1048576, nil, 4.927240000e-03, ""},
		{"Dancer", "MPICH2-KNEM", OpGather, 262144, nil, 4.991823333e-04, ""},
		{"Saturn", "Tuned-KNEM", OpAllgather, 65536, nil, 1.132385067e-03, ""},
		{"IG", "KNEM-Coll", OpAlltoallv, 131072, nil, 1.036342914e-02, ""},
		{"IG", "MPICH2-SM", OpScatter, 524288, nil, 1.045690320e-02, ""},
		{"bpar", "Hier-Tree", OpBcast, 16384, nil, 5.1483288888888893e-05,
			"copies=50 bytes=819200 cacheHits=28 cacheMisses=22 traps=54 regs=6 ctrl=292 a/link=131072 b/link=131072 c/link=131072 cache0=262144 cache2=229376 cache4=229376 core0=65536 core1=32768 core10=32768 core11=32768 core12=32768 core13=32768 core14=32768 core15=32768 core16=32768 core17=32768 core18=32768 core19=32768 core2=32768 core20=32768 core21=32768 core22=32768 core23=32768 core3=32768 core4=32768 core5=32768 core6=32768 core7=32768 core8=32768 core9=32768 mem0=131072 mem1=131072 mem2=327680 mem3=131072 mem4=327680 mem5=131072 tor/a=65536 tor/b=32768 tor/c=32768"},
		{"bpar", "Hier-Tree", OpBcast, 32768, nil, 8.8666577777777778e-05,
			"copies=50 bytes=1638400 cacheHits=28 cacheMisses=22 traps=54 regs=6 ctrl=292 a/link=262144 b/link=262144 c/link=262144 cache0=524288 cache2=458752 cache4=458752 core0=131072 core1=65536 core10=65536 core11=65536 core12=65536 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=65536 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 core8=65536 core9=65536 mem0=262144 mem1=262144 mem2=655360 mem3=262144 mem4=655360 mem5=262144 tor/a=131072 tor/b=65536 tor/c=65536"},
		{"bpar", "Hier-Tree", OpBcast, 65536, nil, 1.6303315555555551e-04,
			"copies=50 bytes=3276800 cacheHits=28 cacheMisses=22 traps=54 regs=6 ctrl=292 a/link=524288 b/link=524288 c/link=524288 cache0=1048576 cache2=917504 cache4=917504 core0=262144 core1=131072 core10=131072 core11=131072 core12=131072 core13=131072 core14=131072 core15=131072 core16=131072 core17=131072 core18=131072 core19=131072 core2=131072 core20=131072 core21=131072 core22=131072 core23=131072 core3=131072 core4=131072 core5=131072 core6=131072 core7=131072 core8=131072 core9=131072 mem0=524288 mem1=524288 mem2=1310720 mem3=524288 mem4=1310720 mem5=524288 tor/a=262144 tor/b=131072 tor/c=131072"},
		{"bpar", "Hier-Tree", OpBarrier, 0, nil, 9.1999999999999932e-06,
			"copies=0 bytes=0 cacheHits=0 cacheMisses=0 traps=0 regs=0 ctrl=288"},
		{"Dancer", "KNEM-Linear", OpBcast, 65536, nil, 4.3000000000000008e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=8 regs=1 ctrl=14 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Linear", OpBcast, 65536, planCreate, 8.8229050955988464e-05,
			"copies=28 bytes=917504 cacheHits=15 cacheMisses=13 traps=0 regs=0 ctrl=48 cache0=622592 core0=131072 core1=196608 core2=196608 core3=131072 core4=65536 core5=65536 core6=65536 core7=65536 mem0=557056 mem1=786432 qpi=393216"},
		{"Dancer", "KNEM-Linear", OpBcast, 65536, planInvalidate, 0.0001090053333333333,
			"copies=12 bytes=786432 cacheHits=6 cacheMisses=6 traps=8 regs=1 ctrl=34 faults=1 createFaults=0 copyFaults=1 dmaFaults=0 invalidations=1 retries=0 fallbacks=0 resends=5 cache0=458752 core0=327680 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=393216 mem1=786432 qpi=327680"},
		{"Dancer", "KNEM-Linear", OpBcast, 65536, planTransient, 4.350555555555555e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=12 regs=1 ctrl=14 faults=4 createFaults=0 copyFaults=4 dmaFaults=0 invalidations=0 retries=4 fallbacks=0 resends=0 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Linear", OpBcast, 65536, planBudget, 4.3000000000000008e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=8 regs=1 ctrl=14 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Linear", OpBcast, 65536, planDMA, 4.3000000000000008e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=8 regs=1 ctrl=14 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, nil, 3.6434740740740729e-05,
			"copies=19 bytes=458752 cacheHits=12 cacheMisses=7 traps=22 regs=2 ctrl=26 cache1=196608 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=262144 qpi=65536"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, planCreate, 7.8752814814814776e-05,
			"copies=31 bytes=655360 cacheHits=12 cacheMisses=19 traps=9 regs=1 ctrl=59 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache1=196608 core1=65536 core2=65536 core3=65536 core4=262144 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=655360 qpi=65536"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, planInvalidate, 0.00011444622222222223,
			"copies=15 bytes=737280 cacheHits=9 cacheMisses=6 traps=13 regs=2 ctrl=46 faults=2 createFaults=0 copyFaults=2 dmaFaults=0 invalidations=2 retries=0 fallbacks=0 resends=5 cache0=196608 cache1=196608 core0=131072 core1=65536 core2=65536 core3=65536 core4=212992 core5=65536 core6=65536 core7=65536 mem0=393216 mem1=688128 qpi=65536"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, planTransient, 4.0924833333333345e-05,
			"copies=19 bytes=458752 cacheHits=13 cacheMisses=6 traps=32 regs=2 ctrl=26 faults=10 createFaults=2 copyFaults=8 dmaFaults=0 invalidations=0 retries=10 fallbacks=0 resends=0 cache0=16384 cache1=196608 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=442368 mem1=262144 qpi=65536"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, planBudget, 7.8752814814814776e-05,
			"copies=31 bytes=655360 cacheHits=12 cacheMisses=19 traps=9 regs=1 ctrl=59 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache1=196608 core1=65536 core2=65536 core3=65536 core4=262144 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=655360 qpi=65536"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, planDMA, 3.6434740740740729e-05,
			"copies=19 bytes=458752 cacheHits=12 cacheMisses=7 traps=22 regs=2 ctrl=26 cache1=196608 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=262144 qpi=65536"},
		{"Dancer", "KNEM-NoPipe", OpBcast, 65536, nil, 4.6590740740740745e-05,
			"copies=7 bytes=458752 cacheHits=3 cacheMisses=4 traps=10 regs=2 ctrl=17 cache1=196608 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=262144 qpi=65536"},
		{"Dancer", "KNEM-NoPipe", OpBcast, 65536, planCreate, 8.9508814814814779e-05,
			"copies=10 bytes=655360 cacheHits=3 cacheMisses=7 traps=6 regs=1 ctrl=23 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache1=196608 core1=65536 core2=65536 core3=65536 core4=262144 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=655360 qpi=65536"},
		{"Dancer", "KNEM-NoPipe", OpBcast, 65536, planInvalidate, 7.9278222222222214e-05,
			"copies=9 bytes=589824 cacheHits=6 cacheMisses=3 traps=10 regs=2 ctrl=25 faults=1 createFaults=0 copyFaults=1 dmaFaults=0 invalidations=1 retries=0 fallbacks=0 resends=2 cache0=262144 cache1=196608 core0=131072 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=393216 mem1=393216 qpi=131072"},
		{"Dancer", "KNEM-NoPipe", OpBcast, 65536, planTransient, 5.6522666666666653e-05,
			"copies=8 bytes=524288 cacheHits=5 cacheMisses=3 traps=17 regs=2 ctrl=21 faults=7 createFaults=2 copyFaults=5 dmaFaults=0 invalidations=0 retries=6 fallbacks=0 resends=1 cache0=131072 cache1=196608 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=262144 qpi=65536"},
		{"Dancer", "KNEM-NoPipe", OpBcast, 65536, planBudget, 8.9508814814814779e-05,
			"copies=10 bytes=655360 cacheHits=3 cacheMisses=7 traps=6 regs=1 ctrl=23 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache1=196608 core1=65536 core2=65536 core3=65536 core4=262144 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=655360 qpi=65536"},
		{"Dancer", "KNEM-NoPipe", OpBcast, 65536, planDMA, 4.6590740740740745e-05,
			"copies=7 bytes=458752 cacheHits=3 cacheMisses=4 traps=10 regs=2 ctrl=17 cache1=196608 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=458752 mem1=262144 qpi=65536"},
		{"IG", "KNEM-Multi", OpBcast, 65536, nil, 0.00011728960000000009,
			"copies=173 bytes=3080192 cacheHits=140 cacheMisses=33 traps=188 regs=7 ctrl=237 cache1=327680 cache2=327680 cache3=327680 cache4=524288 cache5=327680 cache6=327680 cache7=327680 core1=65536 core10=65536 core11=65536 core12=65536 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=65536 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core24=65536 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=65536 core30=65536 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=65536 core37=65536 core38=65536 core39=65536 core4=65536 core40=65536 core41=65536 core42=65536 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=65536 core6=65536 core7=65536 core8=65536 core9=65536 ht=393216 interboard=65536 mem0=917504 mem1=393216 mem2=393216 mem3=393216 mem4=589824 mem5=393216 mem6=393216 mem7=393216"},
		{"IG", "KNEM-Multi", OpBcast, 65536, planCreate, 0.0002806690666666673,
			"copies=265 bytes=4587520 cacheHits=152 cacheMisses=113 traps=81 regs=3 ctrl=477 faults=2 createFaults=2 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=2 resends=0 cache1=327680 cache2=327680 cache3=327680 cache4=524288 cache5=327680 cache6=327680 cache7=327680 core1=65536 core10=65536 core11=65536 core12=393216 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=65536 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core24=589824 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=65536 core30=393216 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=65536 core37=65536 core38=65536 core39=65536 core4=65536 core40=65536 core41=65536 core42=393216 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=65536 core6=65536 core7=65536 core8=65536 core9=65536 ht=393216 interboard=65536 mem0=917504 mem1=393216 mem2=1048576 mem3=393216 mem4=1048576 mem5=1179648 mem6=524288 mem7=1179648"},
		{"IG", "KNEM-Multi", OpBcast, 65536, planInvalidate, 0.00048359600000000004,
			"copies=99 bytes=6078464 cacheHits=54 cacheMisses=45 traps=58 regs=7 ctrl=425 faults=11 createFaults=0 copyFaults=11 dmaFaults=0 invalidations=8 retries=0 fallbacks=0 resends=47 cache0=786432 cache1=327680 cache2=327680 cache3=327680 cache4=524288 cache5=327680 cache6=327680 cache7=327680 core0=589824 core1=65536 core10=65536 core11=65536 core12=393216 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=393216 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core24=573440 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=65536 core30=360448 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=393216 core37=65536 core38=65536 core39=65536 core4=65536 core40=65536 core41=65536 core42=393216 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=65536 core6=360448 core7=65536 core8=65536 core9=65536 ht=393216 interboard=65536 mem0=786432 mem1=1114112 mem2=1179648 mem3=1179648 mem4=1196032 mem5=1081344 mem6=1179648 mem7=1179648"},
		{"IG", "KNEM-Multi", OpBcast, 65536, planTransient, 0.00019466504729838085,
			"copies=170 bytes=3506176 cacheHits=137 cacheMisses=33 traps=265 regs=8 ctrl=307 faults=99 createFaults=3 copyFaults=96 dmaFaults=0 invalidations=0 retries=89 fallbacks=0 resends=10 cache0=229376 cache1=327680 cache2=360448 cache3=376832 cache4=524288 cache5=376832 cache6=344064 cache7=376832 core0=114688 core1=65536 core10=65536 core11=65536 core12=98304 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=114688 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core24=114688 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=65536 core30=114688 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=114688 core37=65536 core38=65536 core39=65536 core4=65536 core40=65536 core41=65536 core42=114688 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=65536 core6=98304 core7=65536 core8=65536 core9=65536 ht=442368 interboard=65536 mem0=868352 mem1=458752 mem2=425984 mem3=540672 mem4=688128 mem5=442368 mem6=475136 mem7=442368"},
		{"IG", "KNEM-Multi", OpBcast, 65536, planBudget, 0.00028077573333333398,
			"copies=325 bytes=5570560 cacheHits=152 cacheMisses=173 traps=16 regs=0 ctrl=632 faults=3 createFaults=3 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=3 resends=0 cache1=327680 cache2=327680 cache3=327680 cache4=524288 cache5=327680 cache6=327680 cache7=327680 core1=65536 core10=65536 core11=65536 core12=393216 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=393216 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core24=589824 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=65536 core30=393216 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=393216 core37=65536 core38=65536 core39=65536 core4=65536 core40=65536 core41=65536 core42=393216 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=65536 core6=393216 core7=65536 core8=65536 core9=65536 ht=393216 interboard=65536 mem0=917504 mem1=1048576 mem2=1048576 mem3=1048576 mem4=1048576 mem5=1179648 mem6=1179648 mem7=1179648"},
		{"IG", "KNEM-Multi", OpBcast, 65536, planDMA, 0.00011728960000000009,
			"copies=173 bytes=3080192 cacheHits=140 cacheMisses=33 traps=188 regs=7 ctrl=237 cache1=327680 cache2=327680 cache3=327680 cache4=524288 cache5=327680 cache6=327680 cache7=327680 core1=65536 core10=65536 core11=65536 core12=65536 core13=65536 core14=65536 core15=65536 core16=65536 core17=65536 core18=65536 core19=65536 core2=65536 core20=65536 core21=65536 core22=65536 core23=65536 core24=65536 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=65536 core30=65536 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=65536 core37=65536 core38=65536 core39=65536 core4=65536 core40=65536 core41=65536 core42=65536 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=65536 core6=65536 core7=65536 core8=65536 core9=65536 ht=393216 interboard=65536 mem0=917504 mem1=393216 mem2=393216 mem3=393216 mem4=589824 mem5=393216 mem6=393216 mem7=393216"},
		{"Dancer", "KNEM-Lazy", OpBcast, 65536, nil, 4.2600000000000012e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=7 regs=1 ctrl=14 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Lazy", OpBcast, 65536, planCreate, 8.8229050955988464e-05,
			"copies=28 bytes=917504 cacheHits=15 cacheMisses=13 traps=0 regs=0 ctrl=48 cache0=622592 core0=131072 core1=196608 core2=196608 core3=131072 core4=65536 core5=65536 core6=65536 core7=65536 mem0=557056 mem1=786432 qpi=393216"},
		{"Dancer", "KNEM-Lazy", OpBcast, 65536, planInvalidate, 0.0001090053333333333,
			"copies=12 bytes=786432 cacheHits=6 cacheMisses=6 traps=8 regs=1 ctrl=34 faults=1 createFaults=0 copyFaults=1 dmaFaults=0 invalidations=1 retries=0 fallbacks=0 resends=5 cache0=458752 core0=327680 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=393216 mem1=786432 qpi=327680"},
		{"Dancer", "KNEM-Lazy", OpBcast, 65536, planTransient, 4.350555555555555e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=12 regs=1 ctrl=14 faults=4 createFaults=0 copyFaults=4 dmaFaults=0 invalidations=0 retries=4 fallbacks=0 resends=0 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Lazy", OpBcast, 65536, planBudget, 4.3000000000000008e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=8 regs=1 ctrl=14 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Lazy", OpBcast, 65536, planDMA, 4.3000000000000008e-05,
			"copies=7 bytes=458752 cacheHits=0 cacheMisses=7 traps=8 regs=1 ctrl=14 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=655360 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpScatter, 65536, nil, 5.5165750000000003e-05,
			"copies=8 bytes=524288 cacheHits=0 cacheMisses=8 traps=8 regs=1 ctrl=14 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=786432 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpScatter, 65536, planCreate, 0.00013207199999999995,
			"copies=14 bytes=917504 cacheHits=3 cacheMisses=11 traps=0 regs=0 ctrl=28 cache0=458752 core0=458752 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=851968 mem1=786432 qpi=524288"},
		{"Dancer", "KNEM-Coll", OpScatter, 65536, planInvalidate, 0.00012117108333333335,
			"copies=13 bytes=851968 cacheHits=1 cacheMisses=12 traps=8 regs=1 ctrl=34 faults=1 createFaults=0 copyFaults=1 dmaFaults=0 invalidations=1 retries=0 fallbacks=0 resends=5 cache0=131072 core0=393216 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=851968 mem1=786432 qpi=327680"},
		{"Dancer", "KNEM-Coll", OpScatter, 65536, planTransient, 5.5570194444444458e-05,
			"copies=8 bytes=524288 cacheHits=0 cacheMisses=8 traps=12 regs=1 ctrl=14 faults=4 createFaults=0 copyFaults=4 dmaFaults=0 invalidations=0 retries=4 fallbacks=0 resends=0 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=786432 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpScatter, 65536, planBudget, 0.00013569413888888884,
			"copies=14 bytes=917504 cacheHits=0 cacheMisses=14 traps=0 regs=0 ctrl=28 core0=458752 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=1048576 mem1=786432 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpScatter, 65536, planDMA, 5.5165750000000003e-05,
			"copies=8 bytes=524288 cacheHits=0 cacheMisses=8 traps=8 regs=1 ctrl=14 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=786432 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpGather, 65536, nil, 5.5165750000000003e-05,
			"copies=8 bytes=524288 cacheHits=0 cacheMisses=8 traps=8 regs=1 ctrl=14 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=786432 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpGather, 65536, planCreate, 0.00015816844444444439,
			"copies=14 bytes=917504 cacheHits=3 cacheMisses=11 traps=0 regs=0 ctrl=23 cache0=196608 cache1=262144 core0=458752 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=1376256 mem1=262144 qpi=524288"},
		{"Dancer", "KNEM-Coll", OpGather, 65536, planInvalidate, 0.00017922530555555555,
			"copies=13 bytes=851968 cacheHits=1 cacheMisses=12 traps=8 regs=1 ctrl=34 faults=1 createFaults=0 copyFaults=1 dmaFaults=0 invalidations=1 retries=0 fallbacks=0 resends=5 cache0=65536 cache1=65536 core0=393216 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=1376256 mem1=262144 qpi=327680"},
		{"Dancer", "KNEM-Coll", OpGather, 65536, planTransient, 5.5570194444444458e-05,
			"copies=8 bytes=524288 cacheHits=0 cacheMisses=8 traps=12 regs=1 ctrl=14 faults=4 createFaults=0 copyFaults=4 dmaFaults=0 invalidations=0 retries=4 fallbacks=0 resends=0 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=786432 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpGather, 65536, planBudget, 0.00015816844444444434,
			"copies=14 bytes=917504 cacheHits=0 cacheMisses=14 traps=0 regs=0 ctrl=22 core0=458752 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=1572864 mem1=262144 qpi=262144"},
		{"Dancer", "KNEM-Coll", OpGather, 65536, planDMA, 5.5165750000000003e-05,
			"copies=8 bytes=524288 cacheHits=0 cacheMisses=8 traps=8 regs=1 ctrl=14 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 mem0=786432 mem1=262144 qpi=262144"},
		{"dma", "KNEM-Coll", OpAlltoall, 65536, nil, 0.00028901047474747459,
			"copies=64 bytes=4194304 cacheHits=0 cacheMisses=64 traps=65 regs=8 ctrl=80 core0=524288 core1=524288 core2=524288 core3=524288 core4=524288 core5=524288 core6=524288 core7=524288 link=2097152 mem0=4194304 mem1=4194304"},
		{"dma", "KNEM-Coll", OpAlltoall, 65536, planCreate, 0.00041087848241244858,
			"copies=89 bytes=5832704 cacheHits=9 cacheMisses=80 traps=33 regs=4 ctrl=154 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache0=917504 cache1=458752 core0=917504 core1=524288 core2=917504 core3=524288 core4=917504 core5=983040 core6=524288 core7=524288 link=2883584 mem0=5373952 mem1=5701632"},
		{"dma", "KNEM-Coll", OpAlltoall, 65536, planInvalidate, 0.00044722062496141423,
			"copies=95 bytes=6225920 cacheHits=3 cacheMisses=92 traps=65 regs=8 ctrl=236 faults=11 createFaults=0 copyFaults=11 dmaFaults=0 invalidations=7 retries=0 fallbacks=0 resends=31 cache0=393216 cache1=327680 core0=917504 core1=983040 core2=917504 core3=524288 core4=917504 core5=655360 core6=720896 core7=589824 link=2621440 mem0=5898240 mem1=6356992"},
		{"dma", "KNEM-Coll", OpAlltoall, 65536, planTransient, 0.00031749502799304662,
			"copies=67 bytes=4390912 cacheHits=1 cacheMisses=66 traps=100 regs=8 ctrl=124 faults=35 createFaults=0 copyFaults=35 dmaFaults=0 invalidations=0 retries=32 fallbacks=0 resends=3 cache0=131072 cache1=65536 core0=589824 core1=524288 core2=589824 core3=524288 core4=524288 core5=524288 core6=589824 core7=524288 link=2228224 mem0=4194304 mem1=4521984"},
		{"dma", "KNEM-Coll", OpAlltoall, 65536, planBudgetWide, 0.00052950583090116601,
			"copies=107 bytes=7012352 cacheHits=3 cacheMisses=104 traps=9 regs=1 ctrl=175 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache1=458752 core0=917504 core1=524288 core2=917504 core3=917504 core4=917504 core5=917504 core6=917504 core7=983040 link=2359296 mem0=7077888 mem1=6750208"},
		{"dma", "KNEM-Coll", OpAlltoall, 65536, planDMA, 0.00028841047474747469,
			"copies=64 bytes=4194304 cacheHits=0 cacheMisses=64 traps=65 regs=8 ctrl=112 core0=524288 core1=524288 core2=524288 core3=524288 core4=524288 core5=524288 core6=524288 core7=524288 link=2097152 mem0=4194304 mem1=4194304"},
		{"dma", "KNEM-DMA2", OpAlltoall, 65536, nil, 0.00034542266666666655,
			"copies=64 bytes=4194304 cacheHits=0 cacheMisses=64 traps=65 regs=8 ctrl=80 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 dma0=1835008 dma1=1835008 link=2097152 mem0=4194304 mem1=4194304"},
		{"dma", "KNEM-DMA2", OpAlltoall, 65536, planCreate, 0.00043330210228686929,
			"copies=89 bytes=5832704 cacheHits=9 cacheMisses=80 traps=33 regs=4 ctrl=154 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache0=917504 cache1=458752 core0=655360 core1=327680 core2=655360 core3=327680 core4=655360 core5=720896 core6=327680 core7=327680 dma0=917504 dma1=917504 link=2883584 mem0=5373952 mem1=5701632"},
		{"dma", "KNEM-DMA2", OpAlltoall, 65536, planInvalidate, 0.00035239454545454488,
			"copies=64 bytes=4194304 cacheHits=0 cacheMisses=64 traps=65 regs=8 ctrl=112 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 dma0=1835008 dma1=1835008 link=2097152 mem0=4194304 mem1=4194304"},
		{"dma", "KNEM-DMA2", OpAlltoall, 65536, planTransient, 0.00034780332774949659,
			"copies=64 bytes=4194304 cacheHits=0 cacheMisses=64 traps=69 regs=8 ctrl=112 faults=2 createFaults=2 copyFaults=0 dmaFaults=0 invalidations=0 retries=2 fallbacks=0 resends=0 core0=65536 core1=65536 core2=65536 core3=65536 core4=65536 core5=65536 core6=65536 core7=65536 dma0=1835008 dma1=1835008 link=2097152 mem0=4194304 mem1=4194304"},
		{"dma", "KNEM-DMA2", OpAlltoall, 65536, planBudgetWide, 0.00053243989171192772,
			"copies=108 bytes=7077888 cacheHits=3 cacheMisses=105 traps=9 regs=1 ctrl=189 faults=2 createFaults=2 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=2 resends=0 cache1=458752 core0=917504 core1=524288 core2=851968 core3=851968 core4=851968 core5=851968 core6=851968 core7=917504 dma0=196608 dma1=262144 link=2359296 mem0=7208960 mem1=6750208"},
		{"dma", "KNEM-DMA2", OpAlltoall, 65536, planDMA, 0.00028961622820233401,
			"copies=64 bytes=4194304 cacheHits=0 cacheMisses=64 traps=93 regs=8 ctrl=112 faults=28 createFaults=0 copyFaults=0 dmaFaults=28 invalidations=0 retries=0 fallbacks=28 resends=0 core0=131072 core1=131072 core2=524288 core3=393216 core4=262144 core5=327680 core6=327680 core7=262144 dma0=917504 dma1=917504 link=2097152 mem0=4194304 mem1=4194304"},
		{"Dancer", "KNEM-Ring", OpAllgather, 65536, nil, 0.00026018291304220561,
			"copies=57 bytes=3735552 cacheHits=6 cacheMisses=51 traps=72 regs=8 ctrl=80 cache0=262144 cache1=196608 core0=458752 core1=458752 core2=458752 core3=458752 core4=458752 core5=524288 core6=458752 core7=458752 mem0=3473408 mem1=3604480 qpi=917504"},
		{"Dancer", "KNEM-Ring", OpAllgather, 65536, planCreate, 0.0004308522071012022,
			"copies=85 bytes=5570560 cacheHits=10 cacheMisses=75 traps=40 regs=4 ctrl=204 faults=4 createFaults=4 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=4 resends=28 cache0=393216 cache1=327680 core0=917504 core1=458752 core2=458752 core3=917504 core4=917504 core5=983040 core6=458752 core7=458752 mem0=4259840 mem1=6225920 qpi=983040"},
		{"Dancer", "KNEM-Ring", OpAllgather, 65536, planInvalidate, 0.00040217704164020683,
			"copies=88 bytes=5767168 cacheHits=12 cacheMisses=76 traps=48 regs=8 ctrl=219 faults=7 createFaults=0 copyFaults=7 dmaFaults=0 invalidations=7 retries=0 fallbacks=0 resends=31 cache0=524288 cache1=393216 core0=851968 core1=786432 core2=655360 core3=917504 core4=524288 core5=458752 core6=917504 core7=655360 mem0=5439488 mem1=5308416 qpi=1048576"},
		{"Dancer", "KNEM-Ring", OpAllgather, 65536, planTransient, 0.00034369804138475102,
			"copies=67 bytes=4390912 cacheHits=8 cacheMisses=59 traps=92 regs=8 ctrl=114 faults=30 createFaults=7 copyFaults=23 dmaFaults=0 invalidations=0 retries=28 fallbacks=0 resends=10 cache0=327680 cache1=262144 core0=720896 core1=458752 core2=458752 core3=458752 core4=524288 core5=851968 core6=458752 core7=458752 mem0=3932160 mem1=4325376 qpi=917504"},
		{"Dancer", "KNEM-Ring", OpAllgather, 65536, planBudgetWide, 0.00047109751610928364,
			"copies=106 bytes=6946816 cacheHits=12 cacheMisses=94 traps=16 regs=1 ctrl=309 faults=7 createFaults=7 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=7 resends=49 cache0=458752 cache1=458752 core0=458752 core1=917504 core2=917504 core3=917504 core4=917504 core5=917504 core6=983040 core7=917504 mem0=6029312 mem1=7077888 qpi=1048576"},
		{"Dancer", "KNEM-Ring", OpAllgather, 65536, planDMA, 0.00025993558149399232,
			"copies=57 bytes=3735552 cacheHits=6 cacheMisses=51 traps=72 regs=8 ctrl=64 cache0=262144 cache1=196608 core0=458752 core1=458752 core2=458752 core3=458752 core4=458752 core5=524288 core6=458752 core7=458752 mem0=3473408 mem1=3604480 qpi=917504"},
		{"Dancer", "KNEM-Coll", OpAllgather, 65536, nil, 0.00030825422222222098,
			"copies=139 bytes=4194304 cacheHits=96 cacheMisses=43 traps=143 regs=3 ctrl=124 cache0=311296 cache1=1572864 core0=65536 core1=589824 core2=589824 core3=589824 core4=589824 core5=589824 core6=589824 core7=589824 mem0=4456448 mem1=2359296 qpi=786432"},
		{"Dancer", "KNEM-Coll", OpAllgather, 65536, planCreate, 0.0005714246271643998,
			"copies=232 bytes=7864320 cacheHits=110 cacheMisses=122 traps=9 regs=1 ctrl=469 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache0=4096000 core0=1114112 core1=1638400 core2=1638400 core3=1114112 core4=589824 core5=589824 core6=589824 core7=589824 mem0=5472256 mem1=6422528 qpi=2490368"},
		{"Dancer", "KNEM-Coll", OpAllgather, 65536, planInvalidate, 0.0010706786388888871,
			"copies=70 bytes=8175616 cacheHits=38 cacheMisses=32 traps=20 regs=3 ctrl=214 faults=3 createFaults=0 copyFaults=3 dmaFaults=0 invalidations=3 retries=0 fallbacks=0 resends=12 cache0=3211264 cache1=1638400 core0=2490368 core1=589824 core2=589824 core3=589824 core4=2146304 core5=589824 core6=589824 core7=589824 mem0=5046272 mem1=6520832 qpi=851968"},
		{"Dancer", "KNEM-Coll", OpAllgather, 65536, planTransient, 0.00073445952777778341,
			"copies=86 bytes=5423104 cacheHits=61 cacheMisses=25 traps=109 regs=3 ctrl=152 faults=41 createFaults=0 copyFaults=41 dmaFaults=0 invalidations=0 retries=38 fallbacks=0 resends=3 cache0=524288 cache1=1851392 core0=491520 core1=589824 core2=589824 core3=589824 core4=1392640 core5=589824 core6=589824 core7=589824 mem0=4030464 mem1=4538368 qpi=786432"},
		{"Dancer", "KNEM-Coll", OpAllgather, 65536, planBudgetWide, 0.00065278167592593345,
			"copies=235 bytes=5767168 cacheHits=108 cacheMisses=127 traps=46 regs=2 ctrl=409 faults=1 createFaults=1 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=1 resends=0 cache0=294912 cache1=1916928 core0=65536 core1=589824 core2=589824 core3=589824 core4=2162688 core5=589824 core6=589824 core7=589824 mem0=4456448 mem1=5160960 qpi=786432"},
		{"Dancer", "KNEM-Coll", OpAllgather, 65536, planDMA, 0.00030825422222222098,
			"copies=139 bytes=4194304 cacheHits=96 cacheMisses=43 traps=143 regs=3 ctrl=124 cache0=311296 cache1=1572864 core0=65536 core1=589824 core2=589824 core3=589824 core4=589824 core5=589824 core6=589824 core7=589824 mem0=4456448 mem1=2359296 qpi=786432"},
		{"Dancer", "KNEM-Hier", OpBcast, 65536, planCreate3, 8.862905095598846e-05,
			"copies=28 bytes=917504 cacheHits=15 cacheMisses=13 traps=0 regs=0 ctrl=55 cache0=622592 core0=131072 core1=196608 core2=196608 core3=131072 core4=65536 core5=65536 core6=65536 core7=65536 mem0=557056 mem1=786432 qpi=393216"},
		{"IG", "KNEM-Multi", OpBcast, 65536, planCreate3, 0.00034419916694386162,
			"copies=187 bytes=6127616 cacheHits=97 cacheMisses=90 traps=0 regs=0 ctrl=368 cache0=1114112 cache1=1179648 cache2=1179648 cache3=1081344 core0=98304 core1=196608 core10=196608 core11=196608 core12=196608 core13=196608 core14=196608 core15=196608 core16=196608 core17=196608 core18=196608 core19=196608 core2=196608 core20=196608 core21=196608 core22=196608 core23=131072 core24=65536 core25=65536 core26=65536 core27=65536 core28=65536 core29=65536 core3=196608 core30=65536 core31=65536 core32=65536 core33=65536 core34=65536 core35=65536 core36=65536 core37=65536 core38=65536 core39=65536 core4=196608 core40=65536 core41=65536 core42=65536 core43=65536 core44=65536 core45=65536 core46=65536 core47=65536 core5=196608 core6=196608 core7=196608 core8=196608 core9=196608 ht=3440640 interboard=2359296 mem0=819200 mem1=1179648 mem2=1179648 mem3=1179648 mem4=1179648 mem5=1179648 mem6=1179648 mem7=1179648"},
		{"bpar", "Hier-Tree", OpBcast, 65536, planCreate, 0.00025562959999999977,
			"copies=71 bytes=4653056 cacheHits=54 cacheMisses=17 traps=30 regs=3 ctrl=355 faults=3 createFaults=3 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=3 resends=0 a/link=393216 b/link=393216 c/link=393216 cache0=1114112 cache1=393216 cache2=983040 cache3=393216 cache4=983040 cache5=393216 core0=458752 core1=131072 core10=196608 core11=131072 core12=262144 core13=131072 core14=196608 core15=131072 core16=327680 core17=131072 core18=196608 core19=131072 core2=196608 core20=262144 core21=131072 core22=196608 core23=131072 core3=131072 core4=262144 core5=131072 core6=196608 core7=131072 core8=327680 core9=131072 mem0=720896 mem1=851968 mem2=1245184 mem3=851968 mem4=1245184 mem5=851968 tor/a=262144 tor/b=131072 tor/c=131072"},
		{"bpar", "Hier-Tree", OpBcast, 65536, planInvalidate, 0.00023550604444444424,
			"copies=78 bytes=5111808 cacheHits=47 cacheMisses=31 traps=54 regs=6 ctrl=404 faults=8 createFaults=0 copyFaults=8 dmaFaults=0 invalidations=6 retries=0 fallbacks=0 resends=28 a/link=786432 b/link=786432 c/link=720896 cache0=1441792 cache2=1376256 cache4=1114112 core0=983040 core1=131072 core10=131072 core11=131072 core12=131072 core13=131072 core14=131072 core15=131072 core16=524288 core17=131072 core18=131072 core19=131072 core2=131072 core20=131072 core21=131072 core22=131072 core23=131072 core3=131072 core4=131072 core5=131072 core6=131072 core7=131072 core8=851968 core9=131072 mem0=786432 mem1=1572864 mem2=983040 mem3=1572864 mem4=917504 mem5=1310720 tor/a=262144 tor/b=131072 tor/c=131072"},
		{"bpar", "Hier-Tree", OpBcast, 65536, planTransient, 0.0001914931555555556,
			"copies=54 bytes=3538944 cacheHits=32 cacheMisses=22 traps=82 regs=6 ctrl=308 faults=32 createFaults=1 copyFaults=31 dmaFaults=0 invalidations=0 retries=28 fallbacks=0 resends=4 a/link=524288 b/link=524288 c/link=655360 cache0=1048576 cache2=983040 cache4=1114112 core0=262144 core1=131072 core10=131072 core11=131072 core12=131072 core13=131072 core14=131072 core15=131072 core16=327680 core17=131072 core18=131072 core19=131072 core2=131072 core20=131072 core21=131072 core22=131072 core23=131072 core3=131072 core4=131072 core5=131072 core6=131072 core7=131072 core8=196608 core9=131072 mem0=524288 mem1=524288 mem2=1376256 mem3=524288 mem4=1245184 mem5=786432 tor/a=262144 tor/b=131072 tor/c=131072"},
	}
	cl := testCluster(t, 3)
	comps := map[string]Comp{
		"Tuned-SM":    TunedSM(),
		"Tuned-KNEM":  TunedKNEM(),
		"MPICH2-SM":   MPICH2SM(),
		"MPICH2-KNEM": MPICH2KNEM(),
		"KNEM-Coll":   KNEMColl(),
		"Hier-Tree":   Hier(cl),
		"KNEM-Linear": KNEMCollCfg("KNEM-Linear", core.Config{Mode: core.ModeLinear}),
		"KNEM-Hier":   KNEMCollCfg("KNEM-Hier", core.Config{Mode: core.ModeHierarchical}),
		"KNEM-NoPipe": KNEMCollCfg("KNEM-NoPipe", core.Config{Mode: core.ModeHierarchical, NoPipeline: true}),
		"KNEM-Multi":  KNEMCollCfg("KNEM-Multi", core.Config{Mode: core.ModeMultiLevel}),
		"KNEM-Lazy":   KNEMCollCfg("KNEM-Lazy", core.Config{Mode: core.ModeLinear, LazySync: true}),
		"KNEM-DMA2":   KNEMCollCfg("KNEM-DMA2", core.Config{DMADepth: 2}),
		"KNEM-Ring":   KNEMCollCfg("KNEM-Ring", core.Config{RingAllgather: true}),
	}
	machines := map[string]*topology.Machine{"bpar": cl.Global, "dma": dmaMachine()}
	for _, g := range golden {
		m := machines[g.machine]
		if m == nil {
			m = topology.ByName(g.machine)
		}
		res := MustMeasure(Config{
			Machine: m, Comp: comps[g.comp],
			Op: g.op, Size: g.size, Iters: 1, OffCache: true, Fault: g.fault,
		})
		tol := 1e-9 * g.want
		if g.stats != "" {
			tol = 0
		}
		if math.Abs(res.Seconds-g.want) > tol {
			t.Errorf("%s/%s/%s/%d/%+v = %.17g, golden %.17g — model drift (regenerate if intentional)",
				g.machine, g.comp, g.op, g.size, g.fault, res.Seconds, g.want)
		}
		if got := res.Stats.String(); g.stats != "" && got != g.stats {
			t.Errorf("%s/%s/%s/%d/%+v stats drift:\n got  %s\n want %s", g.machine, g.comp, g.op, g.size, g.fault, got, g.stats)
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

// dmaMachine is Dancer's shape with one I/OAT-style DMA engine per
// domain, for the offloaded Alltoall rows (no built-in machine has one).
func dmaMachine() *topology.Machine {
	return topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 4,
		BusBW: 16e9, LinkBW: 11e9, BoardLinkBW: 1,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Spec{
			CoreCopyBW: 4.5e9, KernelTrap: 100e-9, CopySetup: 500e-9,
			PinPerPage: 40e-9, CtrlLatency: 300e-9, Flops: 5.5e9,
			DMABw: 6e9,
		},
	})
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
