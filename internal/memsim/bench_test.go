package memsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// contended installs nFlows concurrent copies on IG, all crossing shared
// memory buses and interconnects, without running the engine — the state
// recomputeRates/reschedule see on every flow event of a dense collective.
func contended(nFlows int) *Net {
	m := topology.IG()
	e := sim.NewEngine()
	n := New(e, m, nil)
	for i := 0; i < nFlows; i++ {
		core := m.Cores[i%m.NCores()]
		src := n.Alloc(m.Domains[i%len(m.Domains)], MB, false)
		dst := n.Alloc(m.Domains[(i+1)%len(m.Domains)], MB, false)
		n.CopyAsync(core, dst.Whole(), src.Whole())
	}
	return n
}

// BenchmarkRecomputeRates is the water-filling solver alone: one full
// max-min fair rate computation over nFlows contending flows.
func BenchmarkRecomputeRates(b *testing.B) {
	for _, nFlows := range []int{4, 16, 48, 96} {
		b.Run(fmt.Sprintf("flows%d", nFlows), func(b *testing.B) {
			n := contended(nFlows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.recomputeRates()
			}
		})
	}
}

// BenchmarkReschedule is the full per-flow-event path: cancel the pending
// completion, recompute rates, find the next completion, schedule it.
func BenchmarkReschedule(b *testing.B) {
	for _, nFlows := range []int{4, 48} {
		b.Run(fmt.Sprintf("flows%d", nFlows), func(b *testing.B) {
			n := contended(nFlows)
			n.reschedule() // warm the event pool and scratch arrays
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.reschedule()
			}
		})
	}
}

// BenchmarkCopyChurn is the end-to-end flow lifecycle: each op is one
// 64 KiB copy (startCopy, two rate updates, completion dispatch) with
// steady background contention from a second in-flight copy stream.
func BenchmarkCopyChurn(b *testing.B) {
	m := topology.IG()
	e := sim.NewEngine()
	n := New(e, m, nil)
	src := n.Alloc(m.Domains[0], MB, false)
	dst := n.Alloc(m.Domains[1], MB, false)
	src2 := n.Alloc(m.Domains[2], MB, false)
	dst2 := n.Alloc(m.Domains[3], MB, false)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("bg", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			n.Copy(p, m.Cores[12], dst2.View(0, 64<<10), src2.View(0, 64<<10))
		}
	})
	e.Spawn("fg", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			n.Copy(p, m.Cores[0], dst.View(0, 64<<10), src.View(0, 64<<10))
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFlushSwap times one step of a pipelined copy stream on IG: a
// 64 KiB copy completes and the stream issues its next copy at the same
// instant, against 40 background copies that outlast the run. The solve
// over these 41 flows takes 11 rounds (the paper's IG cells average
// 5.3-6.5 rounds over ~40 flows and ~67 links); contended's state solves
// in one or two. "swap" repeats the stream's route, so every step's flush
// elides its solve; "route_change" alternates two cores of one socket, so
// every step's flush runs the full solve.
func BenchmarkFlushSwap(b *testing.B) {
	for _, bc := range []struct {
		name   string
		cores  [2]int
		elided bool
	}{{"swap", [2]int{0, 0}, true}, {"route_change", [2]int{0, 1}, false}} {
		b.Run(bc.name, func(b *testing.B) {
			m := topology.IG()
			e := sim.NewEngine()
			n := New(e, m, nil)
			const huge = 1 << 50
			for i := 0; i < 40; i++ {
				src := n.Alloc(m.Domains[i%len(m.Domains)], huge, false)
				dst := n.Alloc(m.Domains[(i+i%3)%len(m.Domains)], huge, false)
				n.CopyAsync(m.Cores[(i*7)%m.NCores()], dst.Whole(), src.Whole())
			}
			const chunk = 64 << 10
			const warm = 8
			src := n.Alloc(m.Domains[0], int64(b.N+warm)*chunk, false)
			dst := n.Alloc(m.Domains[0], int64(b.N+warm)*chunk, false)
			var solves, elisions int64
			var rounds int64
			e.Spawn("stream", func(p *sim.Proc) {
				step := func(i int) {
					off := int64(i) * chunk
					n.Copy(p, m.Cores[bc.cores[i%2]], dst.View(off, chunk), src.View(off, chunk))
				}
				for i := 0; i < warm; i++ {
					step(i)
				}
				lo, hi := n.flows[0].round, n.flows[0].round
				for _, f := range n.flows {
					lo, hi = min(lo, f.round), max(hi, f.round)
				}
				rounds = hi - lo + 1 // every round fixes a flow
				solves, elisions = n.rateSolves, n.swapElisions
				b.ReportAllocs()
				b.ResetTimer()
				for i := warm; i < warm+b.N; i++ {
					step(i)
				}
				b.StopTimer()
				solves, elisions = n.rateSolves-solves, n.swapElisions-elisions
				e.Stop()
			})
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			if rounds < 5 {
				b.Fatalf("background solves in %d rounds, want >= 5", rounds)
			}
			if want := int64(b.N); bc.elided && elisions != want || !bc.elided && solves != want {
				b.Fatalf("%d steps: %d solves, %d elided", b.N, solves, elisions)
			}
		})
	}
}
