package memsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// swapKind classifies a burst the way elideSwap must decide it.
type swapKind int

const (
	noSwap     swapKind = iota // not a same-route swap with live records
	swapRuleI                  // every link of the finished flow drained in its round
	swapRuleII                 // some link needed the equal-multiplicity run
	swapReject                 // some link satisfies neither rule
)

// classifySwap inspects the burst about to be flushed, independently of
// elideSwap's code path.
func classifySwap(n *Net) swapKind {
	if !n.needSolve || !n.recorded || n.burstAdds != 1 || n.burstDone != 1 {
		return noSwap
	}
	a := n.flows[len(n.flows)-1]
	if len(a.uses) != len(n.swapUses) {
		return noSwap
	}
	for k, u := range n.swapUses {
		if a.uses[k].link != u.link || a.uses[k].mult != u.mult {
			return noSwap
		}
	}
	kind := swapRuleI
	for _, u := range n.swapUses {
		switch {
		case n.linkRun[u.idx].round == n.swapRound:
		case u.tail:
			kind = swapRuleII
		default:
			return swapReject
		}
	}
	return kind
}

// swapCounts tallies what checkSwaps saw.
type swapCounts struct {
	ruleI, ruleII, rejected int
}

// checkSwaps wraps n's end-of-instant flush. Every same-route swap is
// classified before the flush and must be elided exactly when the rules
// allow it; after every flush that elided its solve, the full solve runs
// on the same state and must reproduce every rate, the cached next
// completion and the completion event's time bit for bit.
func checkSwaps(t testing.TB, n *Net) *swapCounts {
	c := &swapCounts{}
	var rates []float64
	n.repriceFn = func() {
		kind := classifySwap(n)
		elided := n.swapElisions
		n.flushReprice()
		elided = n.swapElisions - elided
		switch kind {
		case swapRuleI:
			c.ruleI++
		case swapRuleII:
			c.ruleII++
		case swapReject:
			c.rejected++
		}
		if want := kind == swapRuleI || kind == swapRuleII; (elided == 1) != want {
			t.Fatalf("t=%v: burst kind %d elided %d solves", n.eng.Now(), kind, elided)
		}
		if elided == 0 {
			return
		}
		rates = rates[:0]
		for _, f := range n.flows {
			rates = append(rates, f.rate)
		}
		nextAt, at := n.nextAt, n.completion.Time()
		n.recomputeRates()
		for i, f := range n.flows {
			if math.Float64bits(f.rate) != math.Float64bits(rates[i]) {
				t.Fatalf("t=%v: flow %d elided rate %.17g, full solve %.17g", n.eng.Now(), f.seq, rates[i], f.rate)
			}
		}
		if got := n.earliestCompletion(); got != nextAt {
			t.Fatalf("t=%v: elided next completion %v, full solve %v", n.eng.Now(), nextAt, got)
		}
		if want := math.Max(nextAt, n.eng.Now()); at != want {
			t.Fatalf("t=%v: completion event at %v, want %v", n.eng.Now(), at, want)
		}
	}
	return c
}

// stream is one pipelined copy stream: count back-to-back copies of chunk
// bytes by core from successive offsets of a buffer on domain src to one
// on domain dst, the first issued at start and each next one at the
// previous one's completion instant. Fresh offsets keep every copy a
// cache miss, so a stream repeats one route.
type stream struct {
	core, src, dst int
	chunk          int64
	count          int
	start          sim.Time
}

// runStreams drives the streams on m under checkSwaps.
func runStreams(t testing.TB, m *topology.Machine, streams []stream) *swapCounts {
	e, n := setup(m)
	c := checkSwaps(t, n)
	for _, s := range streams {
		core := m.Cores[s.core]
		src := n.Alloc(m.Domains[s.src], s.chunk*int64(s.count), false)
		dst := n.Alloc(m.Domains[s.dst], s.chunk*int64(s.count), false)
		e.Spawn("stream", func(p *sim.Proc) {
			p.Wait(s.start)
			for k := int64(0); k < int64(s.count); k++ {
				n.Copy(p, core, dst.View(k*s.chunk, s.chunk), src.View(k*s.chunk, s.chunk))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Busy() != 0 {
		t.Fatalf("%d flows leaked", n.Busy())
	}
	return c
}

// nearTieMachine has two memory domains whose local-copy shares differ by
// half the solver's 1e-12 saturation window: a local copy on mem0 alone
// gets 20 GB/s / 2 = 1e10 B/s, two on mem1 get 40 GB/s × (1+5e-13) / 4
// each. Cores copy at 1e12 B/s, so the buses bound every copy, and the
// caches are too small to hold any chunk.
func nearTieMachine() *topology.Machine {
	b := topology.NewBuilder("near-tie", topology.Spec{CoreCopyBW: 1e12})
	v0, v1 := b.Vertex("v0"), b.Vertex("v1")
	b.Connect(v0, v1, "link", 1e12)
	d0 := b.Domain(v0, 20e9)
	d1 := b.Domain(v1, 40e9*(1+5e-13))
	b.Core(v0, d0, b.Group(v0, 4096, 1e12))
	g1 := b.Group(v1, 4096, 1e12)
	b.Core(v1, d1, g1)
	b.Core(v1, d1, g1)
	return b.Build()
}

// TestSwapElisionBitExact drives pipelined same-route copy streams on the
// paper machines and a compiled four-node cluster — local copies and
// copies within a remote domain (multiplicity 2 on the bus) mixed with
// remote reads and writes (multiplicity 1 on each bus) — and checks every
// elided flush against the full solve (checkSwaps). Rule (i), rule (ii)
// and a rejection must each occur on every machine. The near-tie
// machine interleaves disjoint fast-path adds and completions, whose rates
// differ from a full solve's, with swaps on the other bus: an elision
// there would be exact only if the fast path had voided the records.
func TestSwapElisionBitExact(t *testing.T) {
	cl, err := topology.LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	chunks := []int64{64 << 10, 256 << 10, 1 << 20}
	for _, m := range []*topology.Machine{topology.Dancer(), topology.Saturn(), topology.IG(), cl.Global} {
		t.Run(m.Name, func(t *testing.T) {
			var total swapCounts
			for trial := 0; trial < 4; trial++ {
				var streams []stream
				for i := 0; i < max(24, 4*len(m.Domains)); i++ {
					core := rng.Intn(m.NCores())
					src, dst := m.Cores[core].Domain.ID, m.Cores[core].Domain.ID
					switch i % 4 {
					case 1: // remote read
						src = rng.Intn(len(m.Domains))
					case 2: // remote write
						dst = rng.Intn(len(m.Domains))
					case 3: // local copy within a remote domain
						src = rng.Intn(len(m.Domains))
						dst = src
					}
					streams = append(streams, stream{
						core: core, src: src, dst: dst,
						chunk: chunks[rng.Intn(len(chunks))],
						count: 6 + rng.Intn(10),
						start: float64(rng.Intn(4)) * 20e-6,
					})
				}
				c := runStreams(t, m, streams)
				total.ruleI += c.ruleI
				total.ruleII += c.ruleII
				total.rejected += c.rejected
			}
			t.Logf("rule (i) %d, rule (ii) %d, rejected %d", total.ruleI, total.ruleII, total.rejected)
			if total.ruleI == 0 || total.ruleII == 0 || total.rejected == 0 {
				t.Errorf("want every outcome: rule (i) %d, rule (ii) %d, rejected %d", total.ruleI, total.ruleII, total.rejected)
			}
		})
	}
	t.Run("near-tie", func(t *testing.T) {
		const chunk = 1 << 20
		c := runStreams(t, nearTieMachine(), []stream{
			{core: 1, src: 1, dst: 1, chunk: chunk, count: 30},
			{core: 2, src: 1, dst: 1, chunk: chunk, count: 30, start: 37e-6},
			{core: 0, src: 0, dst: 0, chunk: 3 * chunk, count: 1, start: 450e-6},
			{core: 0, src: 0, dst: 0, chunk: 3 * chunk, count: 1, start: 1900e-6},
		})
		if c.ruleI == 0 {
			t.Errorf("no same-route swap elided")
		}
	})
}

// FuzzSwapElision runs checkSwaps over fuzzer-chosen streams: each 7-byte
// group picks a core, source and destination domains, chunk size, start
// instant and the number of back-to-back repeats; the first byte picks
// the machine.
func FuzzSwapElision(f *testing.F) {
	cl, err := topology.LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		f.Fatal(err)
	}
	machines := []*topology.Machine{topology.Dancer(), topology.Saturn(), topology.IG(), cl.Global, nearTieMachine()}
	f.Add([]byte{2, 0, 0, 0, 3, 0, 5, 0, 1, 0, 0, 3, 1, 5, 0, 2, 1, 0, 3, 0, 5, 0})
	f.Add([]byte{4, 1, 1, 1, 7, 0, 9, 0, 2, 1, 1, 7, 2, 9, 0, 0, 0, 0, 9, 5, 1, 0})
	f.Add([]byte{3, 0, 0, 0, 5, 0, 4, 0, 9, 2, 2, 5, 1, 4, 0, 17, 3, 3, 5, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		m := machines[int(data[0])%len(machines)]
		var streams []stream
		for p := data[1:]; len(p) >= 7 && len(streams) < 8; p = p[7:] {
			core := (int(p[0])<<8 | int(p[1])) % m.NCores()
			streams = append(streams, stream{
				core:  core,
				src:   int(p[2]) % len(m.Domains),
				dst:   int(p[3]) % len(m.Domains),
				chunk: int64(1+p[4]%64) << 12,
				start: float64(p[5]%8) * 5e-6,
				count: 1 + int(p[6]%12),
			})
		}
		runStreams(t, m, streams)
	})
}

// TestDisjointFastPathNearTie pins the disjoint fast path inside the
// solver's 1e-12 saturation window, where it is not what a full solve
// computes: two local copies share mem1 at 1e10 × (1+5e-13) B/s each, then
// a copy on the idle mem0 gets 1e10 B/s from the fast path and leaves them
// alone, while a full solve would saturate both buses in one round and fix
// all three at 1e10. The Net is driven outside Run, so adds price
// synchronously.
func TestDisjointFastPathNearTie(t *testing.T) {
	m := nearTieMachine()
	_, n := setup(m)
	d0, d1 := m.Domains[0], m.Domains[1]
	for i := 0; i < 2; i++ {
		src := n.Alloc(d1, MB, false)
		dst := n.Alloc(d1, MB, false)
		n.CopyAsync(d1.Cores[i], dst.Whole(), src.Whole())
	}
	src := n.Alloc(d0, MB, false)
	dst := n.Alloc(d0, MB, false)
	solves := n.rateSolves
	n.CopyAsync(d0.Cores[0], dst.Whole(), src.Whole())
	if n.rateSolves != solves {
		t.Fatal("disjoint add ran a solve")
	}
	shared := 40e9 * (1 + 5e-13) / 4
	if shared == 1e10 {
		t.Fatal("machine lost its near tie")
	}
	for i, want := range []float64{shared, shared, 1e10} {
		if got := n.flows[i].rate; got != want {
			t.Errorf("flow %d: fast path rate %.17g, want %.17g", i, got, want)
		}
	}
	full := referenceRates(n)
	for i, f := range n.flows {
		if full[f] != 1e10 {
			t.Errorf("flow %d: full solve %.17g, want 1e10", i, full[f])
		}
	}
}
