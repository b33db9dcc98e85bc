// Package fault provides a deterministic, seed-driven fault injector for
// the simulated KNEM stack. A Plan describes which faults to inject —
// pinned-page exhaustion and transient failures in region registration,
// cookie invalidation and transient failures in copies, DMA engine stalls
// and failures, degraded links, straggler ranks — and an Injector executes
// it against the counters of one simulation run.
//
// Determinism: the simulation engine is single-threaded in effect, so
// every injector decision happens in a globally ordered sequence of calls.
// Counter-based triggers (every Nth create/copy) are exactly reproducible;
// probability-based triggers draw from a rand.Rand seeded by Plan.Seed and
// are reproducible for a fixed seed and workload. The injector never reads
// wall-clock time or global randomness.
//
// Layering: this package depends only on trace and sim, so the layers it
// instruments (knem, memsim, mpi, core) can import it without cycles.
// knem consults the injector inside Create/Copy/CopyDMA, memsim consults
// it for link bandwidth scaling, and the collective component consults it
// for retry policy and straggler delays.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Plan describes the faults to inject during one run. The zero value
// injects nothing.
type Plan struct {
	// Seed drives the probability-based triggers. Two runs with the same
	// plan and workload produce identical fault sequences.
	Seed int64

	// PinnedPageBudget caps the number of concurrently pinned pages
	// across all live regions; a Create that would exceed it fails with
	// knem.ErrNoMem (the simulated ENOMEM from get_user_pages). 0 means
	// unlimited.
	PinnedPageBudget int64
	// CreateFailEvery makes every Nth Create fail with knem.ErrNoMem
	// (counted across the whole run). 0 disables.
	CreateFailEvery int
	// CreateTransient is the probability that a Create fails with
	// knem.ErrAgain (a retry may succeed).
	CreateTransient float64

	// CopyTransient is the probability that a Copy attempt fails with
	// knem.ErrAgain.
	CopyTransient float64
	// InvalidateEvery destroys the target region of every Nth Copy before
	// the copy runs, yielding knem.ErrInvalidCookie — a cookie invalidated
	// mid-collective. 0 disables.
	InvalidateEvery int

	// DMAFailEvery makes every Nth CopyDMA submission fail with
	// knem.ErrDMA. 0 disables.
	DMAFailEvery int
	// DMAStallEvery stalls every Nth CopyDMA submission by DMAStall
	// seconds before it is accepted (a busy or throttled engine).
	DMAStallEvery int
	// DMAStall is the stall duration in seconds (default 10 µs when
	// DMAStallEvery is set).
	DMAStall float64

	// LinkSlowdown scales the bandwidth of named machine links by a
	// factor in (0, 1] — degraded interconnects, thermally throttled
	// memory buses, or (core engine links are links too) slow cores.
	LinkSlowdown map[string]float64
	// Straggler delays the named ranks by the given seconds at every
	// collective entry, modelling uneven per-rank progress.
	Straggler map[int]float64
	// LeaderDown marks world ranks as ineligible to act as node leaders
	// in hierarchical collectives: the hierarchical component re-elects
	// around them at construction, modelling a node whose designated
	// leader process failed before the job's collective phase.
	LeaderDown map[int]bool

	// MaxRetries bounds the collective component's retries of a transient
	// fault before it degrades the operation (default 3).
	MaxRetries int
	// RetryBackoff is the first retry delay in seconds, doubled per
	// attempt (default 1 µs).
	RetryBackoff float64
}

// Empty reports whether the plan injects no faults at all (retry policy
// and seed alone do not count).
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.PinnedPageBudget == 0 && p.CreateFailEvery == 0 && p.CreateTransient == 0 &&
			p.CopyTransient == 0 && p.InvalidateEvery == 0 &&
			p.DMAFailEvery == 0 && p.DMAStallEvery == 0 &&
			len(p.LinkSlowdown) == 0 && len(p.Straggler) == 0 &&
			len(p.LeaderDown) == 0)
}

// Outcome is the injector's verdict on one module call.
type Outcome int

const (
	// OK lets the call proceed normally.
	OK Outcome = iota
	// Transient fails the call with a retryable error (EAGAIN).
	Transient
	// NoMem fails a Create with the non-retryable pinned-page error.
	NoMem
	// Invalidated destroys the target region before the copy.
	Invalidated
)

// Clock exposes the simulation time used to stamp fault spans; *sim.Engine
// implements it.
type Clock interface {
	Now() sim.Time
}

// Injector executes a Plan against one run. It is not safe for concurrent
// use; the simulator is single-threaded in effect.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	clock Clock
	stats *trace.Stats
	tl    *trace.Timeline

	nCreate int64
	nCopy   int64
	nDMA    int64
	pinned  int64
}

// NewInjector builds an injector for the given plan. stats must be the
// run's counter sink; clock and tl may be nil (no spans recorded).
func NewInjector(plan Plan, clock Clock, stats *trace.Stats, tl *trace.Timeline) *Injector {
	if stats == nil {
		stats = &trace.Stats{}
	}
	return &Injector{
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		clock: clock,
		stats: stats,
		tl:    tl,
	}
}

// Plan returns the plan being executed.
func (in *Injector) Plan() Plan { return in.plan }

// CanFail reports whether the plan can make a KNEM call fail: a pinned-page
// budget, create or copy failures, cookie invalidation, or DMA submission
// failures. Stalls, slow links, stragglers and downed leaders change
// timing or placement but never an outcome. Collective protocols run their
// failure handshakes only when this holds, so an infallible plan runs
// exactly the fault-free protocol. A nil injector cannot fail.
func (in *Injector) CanFail() bool {
	if in == nil {
		return false
	}
	p := &in.plan
	return p.PinnedPageBudget > 0 || p.CreateFailEvery > 0 || p.CreateTransient > 0 ||
		p.CopyTransient > 0 || p.InvalidateEvery > 0 || p.DMAFailEvery > 0
}

// PinnedPages returns the pages currently accounted against the budget.
func (in *Injector) PinnedPages() int64 { return in.pinned }

// note records one injected fault in the counters and on the timeline.
func (in *Injector) note(kind, detail string) {
	in.stats.FaultsInjected++
	in.Event(kind, detail)
}

// Event records a zero-width span on the "faults" lane (also used by the
// collective component for fallback and resend events).
func (in *Injector) Event(kind, detail string) {
	if in.tl == nil {
		return
	}
	now := 0.0
	if in.clock != nil {
		now = in.clock.Now()
	}
	in.tl.Add("faults", kind, now, now, detail)
}

// Create decides the fate of the next region registration of the given
// page count and reserves the pages on success. Release must be called
// with the same count when the region is destroyed.
func (in *Injector) Create(pages int64) Outcome {
	in.nCreate++
	if n := in.plan.CreateFailEvery; n > 0 && in.nCreate%int64(n) == 0 {
		in.stats.CreateFaults++
		in.note("create-enomem", fmt.Sprintf("create #%d", in.nCreate))
		return NoMem
	}
	if p := in.plan.CreateTransient; p > 0 && in.rng.Float64() < p {
		in.stats.CreateFaults++
		in.note("create-eagain", fmt.Sprintf("create #%d", in.nCreate))
		return Transient
	}
	if b := in.plan.PinnedPageBudget; b > 0 && in.pinned+pages > b {
		in.stats.CreateFaults++
		in.note("create-enomem", fmt.Sprintf("budget: %d+%d > %d pages", in.pinned, pages, b))
		return NoMem
	}
	in.pinned += pages
	return OK
}

// Release returns a destroyed region's pages to the budget.
func (in *Injector) Release(pages int64) {
	in.pinned -= pages
	if in.pinned < 0 {
		in.pinned = 0
	}
}

// Copy decides the fate of the next region copy.
func (in *Injector) Copy() Outcome {
	in.nCopy++
	if n := in.plan.InvalidateEvery; n > 0 && in.nCopy%int64(n) == 0 {
		in.stats.CopyFaults++
		in.note("cookie-invalidated", fmt.Sprintf("copy #%d", in.nCopy))
		return Invalidated
	}
	if p := in.plan.CopyTransient; p > 0 && in.rng.Float64() < p {
		in.stats.CopyFaults++
		in.note("copy-eagain", fmt.Sprintf("copy #%d", in.nCopy))
		return Transient
	}
	return OK
}

// DMA decides the fate of the next DMA submission: an extra stall before
// acceptance (0 for none) and whether the submission fails outright.
func (in *Injector) DMA() (stall float64, failed bool) {
	in.nDMA++
	if n := in.plan.DMAFailEvery; n > 0 && in.nDMA%int64(n) == 0 {
		in.stats.DMAFaults++
		in.note("dma-fail", fmt.Sprintf("dma #%d", in.nDMA))
		return 0, true
	}
	if n := in.plan.DMAStallEvery; n > 0 && in.nDMA%int64(n) == 0 {
		d := in.plan.DMAStall
		if d <= 0 {
			d = 10e-6
		}
		in.stats.DMAFaults++
		in.note("dma-stall", fmt.Sprintf("dma #%d +%gs", in.nDMA, d))
		return d, false
	}
	return 0, false
}

// LinkScale returns the bandwidth multiplier for the named link (1 when
// the plan leaves it alone). memsim consults this once per link.
func (in *Injector) LinkScale(name string) float64 {
	if f, ok := in.plan.LinkSlowdown[name]; ok && f > 0 && f <= 1 {
		return f
	}
	return 1
}

// Straggle returns the extra delay the given rank suffers at each
// collective entry (0 for non-stragglers).
func (in *Injector) Straggle(rank int) float64 {
	return in.plan.Straggler[rank]
}

// LeaderDown reports whether the given rank is barred from serving as a
// node leader in hierarchical collectives.
func (in *Injector) LeaderDown(rank int) bool {
	return in.plan.LeaderDown[rank]
}

// MaxRetries returns the plan's retry bound (default 3).
func (in *Injector) MaxRetries() int {
	if in.plan.MaxRetries > 0 {
		return in.plan.MaxRetries
	}
	return 3
}

// Backoff returns the delay before retry number attempt (0-based),
// doubling from RetryBackoff (default 1 µs).
func (in *Injector) Backoff(attempt int) float64 {
	b := in.plan.RetryBackoff
	if b <= 0 {
		b = 1e-6
	}
	if attempt > 30 {
		attempt = 30
	}
	return b * float64(int64(1)<<attempt)
}
