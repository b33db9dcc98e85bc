package memsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// referenceRates is the pre-optimization water-filling solver, kept as the
// executable specification: straightforward progressive filling over maps,
// independent of the incremental bookkeeping (linkWeight, fast paths,
// scratch arrays) the production solver relies on.
func referenceRates(n *Net) map[*flow]float64 {
	nl := len(n.mach.Links)
	fixedLoad := make([]float64, nl)
	weight := make([]float64, nl)
	unfixed := make(map[*flow]bool, len(n.flows))
	rates := make(map[*flow]float64, len(n.flows))
	for _, f := range n.flows {
		unfixed[f] = true
		for _, u := range f.uses {
			weight[u.link.Index] += u.mult
		}
	}
	for len(unfixed) > 0 {
		share := math.Inf(1)
		for i := 0; i < nl; i++ {
			if weight[i] <= 0 {
				continue
			}
			if s := (n.bw[i] - fixedLoad[i]) / weight[i]; s < share {
				share = s
			}
		}
		if share < 0 {
			share = 0
		}
		saturated := make([]bool, nl)
		for i := 0; i < nl; i++ {
			if weight[i] <= 0 {
				continue
			}
			if s := (n.bw[i] - fixedLoad[i]) / weight[i]; s <= share*(1+1e-12) {
				saturated[i] = true
			}
		}
		progress := false
		for _, f := range n.flows {
			if !unfixed[f] {
				continue
			}
			bottled := false
			for _, u := range f.uses {
				if saturated[u.link.Index] {
					bottled = true
					break
				}
			}
			if bottled {
				rates[f] = share
				delete(unfixed, f)
				progress = true
				for _, u := range f.uses {
					fixedLoad[u.link.Index] += share * u.mult
					weight[u.link.Index] -= u.mult
				}
			}
		}
		if !progress {
			panic("reference water-filling made no progress")
		}
	}
	return rates
}

// checkAgainstReference compares every active flow's rate with the
// brute-force reference and verifies no link is loaded past its capacity.
func checkAgainstReference(t *testing.T, n *Net, where string) {
	t.Helper()
	want := referenceRates(n)
	for _, f := range n.flows {
		w := want[f]
		if math.Abs(f.rate-w) > 1e-9*w {
			t.Fatalf("%s: flow %d rate %.12e, reference %.12e", where, f.seq, f.rate, w)
		}
	}
	load := make([]float64, len(n.mach.Links))
	for _, f := range n.flows {
		for _, u := range f.uses {
			load[u.idx] += f.rate * u.mult
		}
	}
	for i, l := range load {
		if bw := n.bw[i]; l > bw*(1+1e-9) {
			t.Fatalf("%s: link %s overloaded: %.12e > %.12e", where, n.mach.Links[i].Name, l, bw)
		}
	}
}

// bruteNextAt is the earliest completion instant over the priced flows,
// scanned from scratch (+Inf when none is priced).
func bruteNextAt(n *Net) sim.Time {
	at := math.Inf(1)
	for _, f := range n.flows {
		if f.rate > 0 {
			at = math.Min(at, f.last+f.remaining/f.rate)
		}
	}
	return at
}

// checkCompletion verifies the cached earliest completion against a scan
// and, when flows are live, that the pending completion event sits at that
// instant (clamped to now, or provisionally far while nothing is priced).
func checkCompletion(t *testing.T, n *Net, where string) {
	t.Helper()
	want := bruteNextAt(n)
	if n.nextAt != want {
		t.Fatalf("%s: cached next completion %v, scan %v", where, n.nextAt, want)
	}
	if len(n.flows) == 0 {
		if n.completion != nil {
			t.Fatalf("%s: completion event pending with no flows", where)
		}
		return
	}
	now := n.eng.Now()
	if math.IsInf(want, 1) {
		want = now + provisionalFar
	} else if want < now {
		want = now
	}
	if n.completion == nil || n.completion.Time() != want {
		t.Fatalf("%s: completion event %v, want one at %v", where, n.completion, want)
	}
}

// TestSolverMatchesBruteForce drives random copy schedules — random cores,
// domains, sizes, and start times, so adds and completions interleave and
// both the incremental fast paths and the full recompute trigger — and
// checks the production rates against the reference solver after every
// add. Rates settle at the end of the instant (reprices are burst-batched
// through the engine's Defer hook), so the check is deferred to run right
// after the Net's own flush. Every flush and every completion also checks
// the cached earliest completion and the pending completion event against
// a brute-force scan. The machine set includes a compiled four-node
// cluster, where most links are idle, so the solver's active-link set is a
// small part of the machine.
func TestSolverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cl, err := topology.LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}
	machines := []*topology.Machine{topology.Dancer(), topology.Saturn(), topology.IG(), cl.Global}
	for trial := 0; trial < 16; trial++ {
		m := machines[trial%len(machines)]
		e, n := setup(m)
		flushes := 0
		n.repriceFn = func() {
			n.flushReprice()
			checkCompletion(t, n, "after flush")
			flushes++
		}
		n.onCompletionFn = func() {
			n.onCompletion()
			checkCompletion(t, n, "after completion")
		}
		checks := 0
		for c := 0; c < 40; c++ {
			core := m.Cores[rng.Intn(m.NCores())]
			src := n.Alloc(m.Domains[rng.Intn(len(m.Domains))], 4*MB, false)
			dst := n.Alloc(m.Domains[rng.Intn(len(m.Domains))], 4*MB, false)
			size := int64(1 + rng.Intn(1<<20))
			at := rng.Float64() * 1e-3
			e.Schedule(at, func() {
				n.CopyAsync(core, dst.View(0, size), src.View(0, size))
				checkCompletion(t, n, "after add")
				e.Defer(func() {
					checkAgainstReference(t, n, "after add")
					checks++
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if checks != 40 {
			t.Fatalf("trial %d: ran %d checks, want 40", trial, checks)
		}
		if flushes < 40 {
			t.Fatalf("trial %d: %d flushes checked, want at least 40", trial, flushes)
		}
		if n.Busy() != 0 {
			t.Fatalf("trial %d: %d flows leaked", trial, n.Busy())
		}
	}
}

// TestBurstRepriceCoalesced pins the batching: a burst of k contending
// copies starting at one instant costs exactly one water-filling solve and
// no elision, and the rates standing at the end of the instant match the
// brute-force reference over the final flow set. Over the whole run,
// every flush that needed a solve either solved or elided a same-route
// swap.
func TestBurstRepriceCoalesced(t *testing.T) {
	m := topology.Saturn()
	e, n := setup(m)
	needed := int64(0)
	n.repriceFn = func() {
		if n.needSolve {
			needed++
		}
		n.flushReprice()
	}
	const k = 12
	var views [k]struct{ dst, src View }
	for i := 0; i < k; i++ {
		src := n.Alloc(m.Domains[i%2], MB, false)
		dst := n.Alloc(m.Domains[(i+1)%2], MB, false)
		views[i].dst, views[i].src = dst.Whole(), src.Whole()
	}
	e.Schedule(1e-6, func() {
		before := n.rateSolves
		for i := 0; i < k; i++ {
			n.CopyAsync(m.Cores[i], views[i].dst, views[i].src)
		}
		if got := n.rateSolves - before; got != 0 {
			t.Errorf("burst of %d adds solved %d times mid-instant, want 0 (deferred)", k, got)
		}
		e.Defer(func() {
			if got := n.rateSolves - before; got != 1 {
				t.Errorf("burst of %d adds cost %d solves, want 1", k, got)
			}
			if n.swapElisions != 0 {
				t.Errorf("burst of %d adds elided %d solves, want 0", k, n.swapElisions)
			}
			checkAgainstReference(t, n, "after burst")
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Busy() != 0 {
		t.Fatalf("%d flows leaked", n.Busy())
	}
	if got := n.rateSolves + n.swapElisions; got != needed {
		t.Errorf("%d solves + %d elisions, want %d", n.rateSolves, n.swapElisions, needed)
	}
}

// TestRescheduleAllocationFree pins the tentpole property: after warm-up,
// a full reschedule — cancel the completion event, rerun water-filling over
// every flow, schedule the next completion — performs zero allocations.
func TestRescheduleAllocationFree(t *testing.T) {
	for _, nFlows := range []int{4, 48} {
		n := contended(nFlows)
		n.reschedule() // warm the event pool and scratch
		if avg := testing.AllocsPerRun(100, func() { n.reschedule() }); avg != 0 {
			t.Errorf("reschedule with %d flows: %.2f allocs/run, want 0", nFlows, avg)
		}
	}
}

// TestDisjointFastPathExact verifies the incremental fast path bit-for-bit:
// a flow sharing no link with the active set must get exactly the rate the
// full solver would assign, with every other rate left untouched, provided
// no other link's share lies within the solver's 1e-12 saturation window
// of the new flow's rate (TestDisjointFastPathNearTie pins the fast path
// inside the window, where a full solve differs). The Net
// is driven outside Run, so every add reprices synchronously and the
// cached earliest completion must match a scan after each one.
func TestDisjointFastPathExact(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0, d1 := m.Domains[0], m.Domains[1]
	// Two flows contending on domain 0's bus.
	for i := 0; i < 2; i++ {
		src := n.Alloc(d0, MB, false)
		dst := n.Alloc(d0, MB, false)
		n.CopyAsync(d0.Cores[i], dst.Whole(), src.Whole())
		checkCompletion(t, n, "after contended add")
	}
	before := []float64{n.flows[0].rate, n.flows[1].rate}
	// A third flow entirely inside domain 1: no shared link.
	src := n.Alloc(d1, MB, false)
	dst := n.Alloc(d1, MB, false)
	n.CopyAsync(d1.Cores[0], dst.Whole(), src.Whole())
	checkCompletion(t, n, "after disjoint add")
	if n.flows[0].rate != before[0] || n.flows[1].rate != before[1] {
		t.Fatal("disjoint add changed unrelated rates")
	}
	want := referenceRates(n)
	for _, f := range n.flows {
		if f.rate != want[f] {
			t.Fatalf("flow %d rate %.17g != full solve %.17g", f.seq, f.rate, want[f])
		}
	}
	_ = e
}

// TestCompletionWithUnpricedSurvivor pins the regression where a copy is
// added at the exact instant the only rated flow completes. The add fires
// first (earlier seq), zeroes the finishing flow's remaining via advance,
// and reschedules the completion at the current instant; the completion
// then fires before the end-of-instant flush has priced the newcomer. At
// that point every surviving flow still has rate 0, and the provisional
// completion target must land strictly in the future — scheduling it at
// the current instant loops onCompletion/scheduleProvisional forever and
// starves the flush that would assign the rate.
func TestCompletionWithUnpricedSurvivor(t *testing.T) {
	m := topology.Dancer()
	d := m.Domains[0]

	// Pass 1: one copy alone, to learn its exact completion instant.
	e1, n1 := setup(m)
	src1 := n1.Alloc(d, MB, false)
	dst1 := n1.Alloc(d, MB, false)
	e1.Schedule(1e-6, func() {
		n1.CopyAsync(d.Cores[0], dst1.Whole(), src1.Whole())
	})
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	done := e1.Now()

	// Pass 2: same copy, plus a contending copy starting at exactly the
	// completion instant. The watchdog turns the historical same-instant
	// livelock into a test failure instead of a hang.
	e2, n2 := setup(m)
	e2.SetMaxEvents(10_000)
	src2 := n2.Alloc(d, MB, false)
	dst2 := n2.Alloc(d, MB, false)
	src3 := n2.Alloc(d, MB, false)
	dst3 := n2.Alloc(d, MB, false)
	e2.Schedule(1e-6, func() {
		n2.CopyAsync(d.Cores[0], dst2.Whole(), src2.Whole())
	})
	e2.Schedule(done, func() {
		n2.CopyAsync(d.Cores[1], dst3.Whole(), src3.Whole())
		e2.Defer(func() {
			checkAgainstReference(t, n2, "after same-instant add")
		})
	})
	if err := e2.Run(); err != nil {
		t.Fatalf("same-instant add livelocked: %v", err)
	}
	if n2.Busy() != 0 {
		t.Fatalf("%d flows leaked", n2.Busy())
	}
}
