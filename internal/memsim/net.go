package memsim

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Net is the flow-level memory system simulator for one machine. All
// concurrent copies share link bandwidth max-min fairly; rates are
// recomputed whenever a flow starts or finishes.
type Net struct {
	eng    *sim.Engine
	mach   *topology.Machine
	stats  *trace.Stats
	tl     *trace.Timeline
	caches []*groupCache
	// bw[i] is link i's effective bandwidth: its capacity times any
	// SetLinkScaler multiplier, refreshed by New, Reset and SetLinkScaler.
	bw []float64

	flows      []*flow
	completion *sim.Event
	// nextAt is the earliest completion instant (flow.finishAt) over the
	// priced flows (rate > 0), or +Inf when none is priced. It is
	// kept exact wherever rates or the flow set change (addFlow's disjoint
	// fast path, onCompletion's survivor pass, flushReprice, scheduleNext),
	// so a mid-burst provisional reschedule costs O(1) instead of a scan.
	nextAt  sim.Time
	nextBuf int64
	flowSeq int64

	// onCompletionFn is the completion callback built once so reschedule
	// allocates no closure.
	onCompletionFn func()

	// Burst-batched repricing: flow adds and removals landing at one
	// simulated instant coalesce into a single end-of-instant rate solve
	// (engine Defer hook) instead of one water-filling per event.
	// repriceFn is the flush callback, built once; repricePending marks
	// that it is registered for the current instant; needSolve records
	// whether the burst requires a full recompute (any non-disjoint
	// change) or just the completion event rescheduled. rateSolves counts
	// water-filling runs (test instrumentation for the batching).
	repriceFn      func()
	repricePending bool
	needSolve      bool
	rateSolves     int64

	// Same-route swap elision (elideSwap). Each full solve records, for
	// every flow, the round that fixed it (flow.round); for every active
	// link, the round its weight drained to 0 (linkRun.round); and for
	// every use, whether the flow sits in the final equal-multiplicity run
	// of that round's addends on the link (linkUse.tail). Rounds are
	// numbered across solves (runRound), so a record left by an earlier
	// solve never matches a current round. recorded says the records
	// describe the live rates: a solve sets it; a disjoint fast-path
	// change or a bandwidth change clears it until the next solve. While
	// it holds, every live flow was priced by the last solve or by an
	// elision that copied its records, so one flag covers all of them.
	// Under Run solves happen only at a flush, so recorded cannot turn
	// true mid-burst. burstAdds/burstDone count the instant's flow
	// changes, and swapRate/swapRound/swapUses copy its last finished
	// flow, which is recycled before the flush. swapElisions counts the
	// flushes that skipped the solve, next to rateSolves.
	recorded             bool
	runRound             int64
	linkRun              []linkRun
	burstAdds, burstDone int
	swapRate             float64
	swapRound            int64
	swapUses             []linkUse
	swapElisions         int64

	// linkWeight[i] is the total multiplicity of the active flows crossing
	// link i, maintained incrementally on every add/remove. It lets the
	// solver skip the full water-filling when a flow joins or leaves
	// without sharing any link with the rest (see addFlow/onCompletion)
	// and seeds the working weights without a per-flow pass.
	linkWeight []float64

	// Persistent water-filling scratch (wf*) and startCopy scratch (use*):
	// the per-link arrays are sized to len(mach.Links) once, the lists grow
	// to the live flow set, and all are reused on every call so the hot
	// paths allocate nothing. wfWeight is all zero between solves: a solve
	// ends with every flow fixed, which drains each link's weight to 0.
	wfFixed  []float64
	wfWeight []float64
	wfSat    []bool
	wfLinks  []int     // links with unfixed flows, first-use order
	wfShare  []float64 // per-round share of wfLinks[k]
	wfFlows  []*flow   // unfixed flows, in n.flows order
	wfDone   []*flow   // flows fixed in the current round, in order
	useEpoch int64
	useMark  []int64
	useMult  []float64
	useOrder []int

	flowPool []*flow           // recycled flow objects, uses-capacity preserved
	finished []*flow           // onCompletion scratch
	pendPool []*Pending        // recycled copy handles (blocking Copy only)
	bufSlab  *sim.Slab[Buffer] // arena-backed Alloc; survives Reset

	// Interned routes, keyed by routeKey: the PathToDomain/PathToGroup
	// result for a (core vertex, domain or group) pair, computed on the
	// pair's first copy so startCopy never rebuilds a link path and a Net
	// pays only for the pairs its copies use. Entries survive Reset. The
	// slices are shared and must never be mutated.
	routes map[int64][]*topology.Link

	// linkNames is the dense link-name table handed to every stats sink
	// (SetLinkNames), built once in New and reused by Reset.
	linkNames []string

	// Coherence islands (SetClusterIslands): per-group and per-domain
	// half-open ranges into caches bounding what a reader may snoop and
	// what a write invalidates. Nil means one island spanning the machine.
	islGroupLo, islGroupHi []int32
	islDomLo, islDomHi     []int32
}

// linkUse is one link crossed by a flow; mult > 1 when the flow crosses the
// link more than once (e.g. read and write through the same memory bus).
// idx caches link.Index so the solver's inner loops stay pointer-free; it
// is an int32 so that with tail the struct stays 24 bytes (at 32 the
// solver's scans over flow uses ran ~7% slower per paper cell).
type linkUse struct {
	link *topology.Link
	mult float64
	idx  int32
	tail bool // solve record, see Net.recordRound
}

// linkRun is a link's solve record (Net.recordRound).
type linkRun struct {
	round int64   // last round that fixed a flow on the link
	mult  float64 // multiplicity of that round's final run of addends
}

type flow struct {
	seq       int64
	uses      []linkUse
	remaining float64
	rate      float64
	started   sim.Time
	round     int64 // the solve round that fixed the flow (Net.recordRound)
	// last is the instant of the flow's most recent depletion: its start,
	// or the last time its rate changed. Depletion is lazy per flow (see
	// depleteTo), so remaining is the bytes left as of last, not as of the
	// engine's current time.
	last    sim.Time
	pending *Pending
	// Completion state, consumed by finishFlow. Kept as plain fields (not
	// a closure) so starting a copy allocates nothing.
	engine   *topology.Link
	core     *topology.Core // nil for DMA copies
	src, dst View
}

// Pending is a handle to an in-flight copy.
type Pending struct {
	done   bool
	waiter *sim.Proc
}

// Done reports whether the copy has completed.
func (pe *Pending) Done() bool { return pe.done }

// Wait blocks p until the copy completes.
func (pe *Pending) Wait(p *sim.Proc) {
	if pe.done {
		return
	}
	if pe.waiter != nil {
		panic("memsim: multiple waiters on one Pending")
	}
	pe.waiter = p
	p.Park("memsim copy")
}

// New creates a memory system for machine m. stats may be nil.
func New(eng *sim.Engine, m *topology.Machine, stats *trace.Stats) *Net {
	if stats == nil {
		stats = &trace.Stats{}
	}
	n := &Net{eng: eng, mach: m, stats: stats}
	n.bufSlab = sim.SlabFor[Buffer](eng.Arena())
	names := make([]string, len(m.Links))
	for i, l := range m.Links {
		names[i] = l.Name
	}
	n.linkNames = names
	stats.SetLinkNames(names)
	for _, g := range m.Groups {
		n.caches = append(n.caches, newGroupCache(g, &entryPool{}))
	}
	n.routes = make(map[int64][]*topology.Link)
	nl := len(m.Links)
	n.bw = make([]float64, nl)
	n.SetLinkScaler(nil)
	n.nextAt = math.Inf(1)
	n.linkWeight = make([]float64, nl)
	n.wfFixed = make([]float64, nl)
	n.wfWeight = make([]float64, nl)
	n.wfSat = make([]bool, nl)
	n.wfShare = make([]float64, nl)
	n.useMark = make([]int64, nl)
	n.useMult = make([]float64, nl)
	n.linkRun = make([]linkRun, nl)
	n.onCompletionFn = n.onCompletion
	n.repriceFn = n.flushReprice
	return n
}

// Reset returns the memory system to its initial state — no flows, cold
// caches, buffer and flow numbering restarted, full link bandwidth, no
// timeline, a new stats sink — while keeping everything New computed or
// the last run warmed: the interned routes, the solver scratch, and the
// flow / pending / cache-entry pools. The engine binding is permanent;
// callers must Reset (or freshly construct) that engine too, which drops
// any still-pending completion event. A reset Net on a reset Engine is
// observably identical to memsim.New on a fresh engine — same timestamps,
// same rates, bit-identical runs — but simulates with far fewer
// allocations, which is what the sharded sweep runner in internal/bench
// reuses between cells. stats may be nil.
func (n *Net) Reset(stats *trace.Stats) {
	if stats == nil {
		stats = &trace.Stats{}
	}
	n.stats = stats
	stats.SetLinkNames(n.linkNames)
	n.tl = nil
	n.SetLinkScaler(nil)
	n.islGroupLo, n.islGroupHi = nil, nil
	n.islDomLo, n.islDomHi = nil, nil
	for _, c := range n.caches {
		c.flush()
	}
	// A completed run leaves no flows; recycle defensively after an
	// aborted one.
	for i, f := range n.flows {
		n.freeFlow(f)
		n.flows[i] = nil
	}
	n.flows = n.flows[:0]
	n.completion = nil
	n.nextAt = math.Inf(1)
	n.nextBuf, n.flowSeq = 0, 0
	n.repricePending, n.needSolve = false, false
	n.rateSolves, n.swapElisions = 0, 0
	n.endBurst()
	for i := range n.linkWeight {
		n.linkWeight[i] = 0
	}
	// useEpoch and runRound stay monotone: useMark and linkRun entries
	// still carry old stamps, and a rewound count could collide with them.
}

// SetClusterIslands scopes hardware cache coherence to the nodes of a
// compiled cluster: each node's cache groups form one coherence island,
// so cross-node cache hits and modified-line interventions — which no
// real fabric provides — cannot occur. Reads of remote memory stream from
// the home node's DRAM instead. Single machines (and a nil cluster) keep
// the default whole-machine island. The cluster must be the one this
// Net's machine was compiled from.
func (n *Net) SetClusterIslands(cl *topology.Cluster) {
	if cl == nil {
		n.islGroupLo, n.islGroupHi = nil, nil
		n.islDomLo, n.islDomHi = nil, nil
		return
	}
	if cl.Global != n.mach {
		panic("memsim: SetClusterIslands cluster does not match the Net's machine")
	}
	ng, nd := len(n.mach.Groups), len(n.mach.Domains)
	if len(n.islGroupLo) != ng {
		n.islGroupLo = make([]int32, ng)
		n.islGroupHi = make([]int32, ng)
		n.islDomLo = make([]int32, nd)
		n.islDomHi = make([]int32, nd)
	}
	for _, node := range cl.Nodes {
		lo, hi := int32(node.FirstGroup), int32(node.FirstGroup+node.NGroups)
		for g := lo; g < hi; g++ {
			n.islGroupLo[g], n.islGroupHi[g] = lo, hi
		}
		for d := node.FirstDomain; d < node.FirstDomain+node.NDomains; d++ {
			n.islDomLo[d], n.islDomHi[d] = lo, hi
		}
	}
}

// Machine returns the underlying hardware model.
func (n *Net) Machine() *topology.Machine { return n.mach }

// Engine returns the simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Stats returns the counter sink, with link-byte accounting folded in.
func (n *Net) Stats() *trace.Stats {
	n.stats.FlushLinks()
	return n.stats
}

// SetTimeline attaches a span recorder; every copy becomes a span on its
// executing engine's lane. Pass nil to disable (the default).
func (n *Net) SetTimeline(tl *trace.Timeline) { n.tl = tl }

// Timeline returns the attached span recorder (nil when disabled).
func (n *Net) Timeline() *trace.Timeline { return n.tl }

// LinkScaler supplies per-link bandwidth multipliers in (0, 1] — the
// fault-injection hook for degraded interconnects and slow cores (core
// copy engines are links too). Implemented by fault.Injector.
type LinkScaler interface {
	LinkScale(name string) float64
}

// SetLinkScaler snapshots the scaler's multiplier for every machine link.
// Pass nil to restore full bandwidth. Values outside (0, 1] are clamped
// to 1 so a misconfigured plan cannot stall the water-filling solver.
func (n *Net) SetLinkScaler(s LinkScaler) {
	n.recorded = false // live rates were solved under the old bandwidths
	for i, l := range n.mach.Links {
		n.bw[i] = l.BW
		if s == nil {
			continue
		}
		f := s.LinkScale(l.Name)
		if f <= 0 || f > 1 {
			f = 1
		}
		n.bw[i] *= f
	}
}

// Busy returns the number of in-flight flows (for tests).
func (n *Net) Busy() int { return len(n.flows) }

// Copy moves src to dst executed by core, blocking p until completion.
// Lengths must match. The executing core's copy engine, the read path
// (cache or DRAM), and the write path all contend with concurrent flows.
// The copy handle is recycled internally, so a blocking Copy allocates
// nothing in steady state.
func (n *Net) Copy(p *sim.Proc, core *topology.Core, dst, src View) {
	pe := n.CopyAsync(core, dst, src)
	pe.Wait(p)
	n.freePending(pe)
}

// newPending takes a handle from the pool or allocates one.
func (n *Net) newPending() *Pending {
	if k := len(n.pendPool); k > 0 {
		pe := n.pendPool[k-1]
		n.pendPool[k-1] = nil
		n.pendPool = n.pendPool[:k-1]
		return pe
	}
	return &Pending{}
}

// freePending recycles a completed handle. Only the blocking Copy path
// recycles: handles returned by CopyAsync/CopyDMA stay with the caller,
// which may hold them arbitrarily long.
func (n *Net) freePending(pe *Pending) {
	pe.done, pe.waiter = false, nil
	n.pendPool = append(n.pendPool, pe)
}

// CopyAsync starts a copy executed by core and returns immediately.
func (n *Net) CopyAsync(core *topology.Core, dst, src View) *Pending {
	return n.startCopy(core.Engine, core, dst, src)
}

// CopyDMA starts a copy offloaded to the DMA engine of the executing
// core's domain (Intel I/OAT style): the core's copy engine is not
// consumed, so the core is free to compute or issue further copies. It
// panics if the machine has no DMA engines.
func (n *Net) CopyDMA(core *topology.Core, dst, src View) *Pending {
	dma := n.mach.DMA[core.Domain.ID]
	if dma == nil {
		panic("memsim: CopyDMA on a machine without DMA engines")
	}
	return n.startCopy(dma, nil, dst, src)
}

// startCopy builds the flow. engine is the copy engine link (a core's or a
// DMA engine's); core is the executing core for cache purposes (nil for
// DMA, which bypasses caches).
func (n *Net) startCopy(engine *topology.Link, core *topology.Core, dst, src View) *Pending {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("memsim: copy length mismatch dst=%d src=%d", dst.Len, src.Len))
	}
	pe := n.newPending()
	if src.Len == 0 {
		pe.done = true
		return pe
	}
	reader := core
	if reader == nil {
		// DMA engines sit at the domain vertex; route from there.
		reader = n.mach.Domains[dmaDomain(n, engine)].Cores[0]
	}

	// Accumulate link multiplicities in first-use order through the
	// persistent epoch-stamped scratch (no per-copy map or slice).
	n.useEpoch++
	n.useLink(engine)

	// Read side: from the nearest cache holding the source range clean
	// (or dirty in the reader's own group); a remote dirty copy is a
	// modified-line intervention (owner's cache + interconnect + home
	// write-back); otherwise DRAM.
	cacheHit := false
	if core != nil {
		if g := n.findCached(core, src); g != nil {
			cacheHit = true
			for _, l := range n.groupRoute(core, g) {
				n.useLink(l)
			}
		} else if g := n.dirtyOwner(core, src); g != nil {
			for _, l := range n.groupRoute(core, g) {
				n.useLink(l)
			}
			n.useLink(src.Buf.Domain.Bus) // write-back to home memory
		} else {
			for _, l := range n.domainRoute(reader, src.Buf.Domain) {
				n.useLink(l)
			}
		}
	} else {
		for _, l := range n.domainRoute(reader, src.Buf.Domain) {
			n.useLink(l)
		}
	}
	// Write side: a destination already resident in the executing core's
	// cache absorbs the write at port speed (write hit; it turns dirty
	// and is charged to DRAM again once evicted and re-missed). Anything
	// else goes to the destination DRAM.
	writeHit := false
	if core != nil && n.caches[core.Group.ID].resident(dst.Buf.ID, dst.Off, dst.Len) {
		writeHit = true
		n.useLink(core.Group.Port)
	}
	if !writeHit {
		for _, l := range n.domainRoute(reader, dst.Buf.Domain) {
			n.useLink(l)
		}
	}

	f := n.newFlow()
	f.remaining, f.pending, f.started = float64(src.Len), pe, n.eng.Now()
	f.last = f.started
	n.flowSeq++
	f.seq = n.flowSeq
	for _, i := range n.useOrder {
		f.uses = append(f.uses, linkUse{link: n.mach.Links[i], idx: int32(i), mult: n.useMult[i]})
	}
	n.useOrder = n.useOrder[:0]

	n.stats.Copies++
	n.stats.BytesCopied += src.Len
	if cacheHit {
		n.stats.CacheHits++
	} else {
		n.stats.CacheMisses++
	}
	for _, u := range f.uses {
		n.stats.AddLinkBytesIdx(int(u.idx), int64(u.mult*float64(src.Len)))
	}

	f.engine, f.core, f.src, f.dst = engine, core, src, dst
	n.addFlow(f)
	return pe
}

// finishFlow runs a completed flow's side effects: the data copy, cache
// touches, invalidations, and waking the waiter. It reads the flow's
// completion fields instead of a captured closure so startCopy stays
// allocation-free.
func (n *Net) finishFlow(f *flow) {
	src, dst := f.src, f.dst
	if n.tl != nil {
		n.tl.Add(f.engine.Name, "copy", f.started, n.eng.Now(),
			fmt.Sprintf("%dB dom%d->dom%d", src.Len, src.Buf.Domain.ID, dst.Buf.Domain.ID))
	}
	if src.Buf.Data != nil && dst.Buf.Data != nil {
		copy(dst.Bytes(), src.Bytes())
	}
	if f.core != nil {
		c := n.caches[f.core.Group.ID]
		c.touch(src.Buf.ID, src.Off, src.Len, false)
		c.touch(dst.Buf.ID, dst.Off, dst.Len, true)
		n.invalidateRange(dst.Buf.ID, dst.Off, dst.Len, f.core.Group, dst.Buf.Domain)
	} else {
		// DMA writes go to memory and invalidate the home island's caches.
		n.invalidateRange(dst.Buf.ID, dst.Off, dst.Len, nil, dst.Buf.Domain)
	}
	pe := f.pending
	pe.done = true
	if pe.waiter != nil {
		pe.waiter.Wake()
	}
}

// domainRoute returns the interned PathToDomain route from core c's vertex
// to domain d, computing it on the pair's first use.
func (n *Net) domainRoute(c *topology.Core, d *topology.MemDomain) []*topology.Link {
	k := n.routeKey(c, d.ID)
	r, ok := n.routes[k]
	if !ok {
		r = n.mach.PathToDomain(c, d)
		n.routes[k] = r
	}
	return r
}

// groupRoute is domainRoute for the PathToGroup route to cache group g.
func (n *Net) groupRoute(c *topology.Core, g *topology.CacheGroup) []*topology.Link {
	k := n.routeKey(c, len(n.mach.Domains)+g.ID)
	r, ok := n.routes[k]
	if !ok {
		r = n.mach.PathToGroup(c, g)
		n.routes[k] = r
	}
	return r
}

// routeKey packs a (core vertex, target) pair; targets number the domains
// first, then the cache groups.
func (n *Net) routeKey(c *topology.Core, target int) int64 {
	return int64(c.Vertex)*int64(len(n.mach.Domains)+len(n.mach.Groups)) + int64(target)
}

// useLink accumulates one crossing of l into the epoch-stamped scratch,
// recording first use order. Small enough to inline into startCopy.
func (n *Net) useLink(l *topology.Link) {
	i := l.Index
	if n.useMark[i] != n.useEpoch {
		n.useMark[i] = n.useEpoch
		n.useMult[i] = 0
		n.useOrder = append(n.useOrder, i)
	}
	n.useMult[i]++
}

// dmaDomain finds which domain a DMA link belongs to.
func dmaDomain(n *Net, l *topology.Link) int {
	for i, d := range n.mach.DMA {
		if d == l {
			return i
		}
	}
	panic("memsim: unknown DMA link")
}

// newFlow takes a flow from the pool (uses capacity preserved) or
// allocates one.
func (n *Net) newFlow() *flow {
	if k := len(n.flowPool); k > 0 {
		f := n.flowPool[k-1]
		n.flowPool[k-1] = nil
		n.flowPool = n.flowPool[:k-1]
		return f
	}
	return &flow{}
}

// freeFlow recycles a completed flow.
func (n *Net) freeFlow(f *flow) {
	uses := f.uses[:0]
	*f = flow{uses: uses}
	n.flowPool = append(n.flowPool, f)
}

func (n *Net) addFlow(f *flow) {
	n.flows = append(n.flows, f)
	n.burstAdds++
	// Fast path: a flow sharing no link with any active flow keeps every
	// other rate and gets the min share over its own links, bw/mult. That
	// is exactly what the full water-filling would assign provided no
	// other link's share lies within the solver's 1e-12 saturation window
	// of that rate; inside the window a full solve would fix both at the
	// lower share in one round (TestDisjointFastPathNearTie pins the
	// fast path's answer there). Either way the rates no longer come from
	// a solve, so the solve records are voided.
	disjoint := true
	for _, u := range f.uses {
		if n.linkWeight[u.idx] != 0 {
			disjoint = false
			break
		}
	}
	for _, u := range f.uses {
		n.linkWeight[u.idx] += u.mult
	}
	if disjoint {
		rate := math.Inf(1)
		for _, u := range f.uses {
			if s := n.bw[u.idx] / u.mult; s < rate {
				rate = s
			}
		}
		f.rate = rate
		if t := f.finishAt(); t < n.nextAt {
			n.nextAt = t
		}
		n.recorded = false
		n.requestReprice(false)
		return
	}
	n.requestReprice(true)
}

// requestReprice is called on every flow change. Under a running engine
// the expensive water-filling is burst-batched: the change only marks
// needSolve, reschedules a provisional completion event (mirroring the
// historical per-change cancel/schedule churn so the event's sequence
// stream stays bit-identical), and defers flushReprice to the end of the
// instant, where the whole burst costs one solve and the provisional
// target is corrected in place with Engine.Retime — preserving the
// completion event's same-instant tie-break position exactly. The stale
// mid-burst rates are safe: no simulated time passes within an instant
// (advance sees dt = 0), and the final solve depends only on the final
// flow set — the same rates, bit for bit, that the solve-per-event code
// converged to (the disjoint fast path agrees with a full solve outside
// the solver's 1e-12 saturation window, see addFlow). Outside Run (tests
// and tools driving the Net directly) the change is priced synchronously,
// the historical behaviour.
func (n *Net) requestReprice(solve bool) {
	if !n.eng.Running() {
		n.endBurst()
		if solve {
			n.reschedule()
		} else {
			n.scheduleNext()
		}
		return
	}
	if solve {
		n.needSolve = true
	}
	n.scheduleProvisional()
	if !n.repricePending {
		n.repricePending = true
		n.eng.Defer(n.repriceFn)
	}
}

// endBurst forgets the instant's flow changes once they are priced.
func (n *Net) endBurst() {
	n.burstAdds, n.burstDone = 0, 0
}

// elideSwap prices a burst whose only net change is a same-route swap —
// one finished flow g replaced by one new flow a with identical uses —
// without a solve, when the records of the solve that priced g prove that
// re-solving would reproduce every rate bit for bit. Then a inherits g's
// rate and records, the cached next completion takes a's, and it reports
// true; otherwise it changes nothing.
//
// The solve is a pure function of bw and the ordered list of the flows'
// uses, and the swap only moves g's route from its place in n.flows to the
// end. Every round then shares, saturates and fixes exactly as before, a
// in g's round r; the only float that can move is fixedLoad on g's links,
// whose round-r addends g's addend now ends. For each of g's links either
// (i) its weight drained in round r, so its fixedLoad is never read again,
// or (ii) every flow fixed on it in round r after g has g's multiplicity
// (use.tail), so the sequence of addends is unchanged. The check costs
// O(route), never a pass over n.flows.
func (n *Net) elideSwap() bool {
	if !n.recorded || n.burstAdds != 1 || n.burstDone != 1 {
		return false
	}
	// The burst's one add was appended last, and removals keep order.
	a := n.flows[len(n.flows)-1]
	if len(a.uses) != len(n.swapUses) {
		return false
	}
	for k, u := range n.swapUses {
		if v := a.uses[k]; v.idx != u.idx || v.mult != u.mult {
			return false
		}
		if !u.tail && n.linkRun[u.idx].round != n.swapRound {
			return false
		}
	}
	// a's depletion is a no-op (it started this instant), and on a link
	// where only (i) held a's tail flag is never consulted: any flow fixed
	// there in round r passes (i).
	a.rate, a.round = n.swapRate, n.swapRound
	copy(a.uses, n.swapUses)
	if t := a.finishAt(); t < n.nextAt {
		n.nextAt = t
	}
	n.swapElisions++
	return true
}

// provisionalFar is the placeholder delay used when no flow has been
// priced yet mid-burst. Any strictly positive value works: the deferred
// flushReprice retimes the event before the instant ends, so this delay
// can never become a simulated timestamp. It must NOT be zero — a
// zero-delay completion fires at the current instant, before the flush
// had a chance to price the burst, and onCompletion would reschedule it
// at zero forever (a same-instant livelock starving the flush).
const provisionalFar = 1.0

// scheduleProvisional mirrors scheduleNext's cancel/schedule pair but
// tolerates flows the deferred solve has not priced yet (rate 0): their
// completion target is unknown mid-burst, so the event's time is only
// provisional — the cached earliest completion over the priced flows.
// flushReprice retimes it once the final rates stand.
func (n *Net) scheduleProvisional() {
	if n.completion != nil {
		n.completion.Cancel()
		n.completion = nil
	}
	if len(n.flows) == 0 {
		return
	}
	now := n.eng.Now()
	at := n.nextAt
	if math.IsInf(at, 1) {
		// Every flow is still unpriced (e.g. the only rated flow just
		// finished at this instant while a new burst is pending): park
		// the event strictly in the future and let the flush settle it.
		at = now + provisionalFar
	} else if at < now {
		at = now
	}
	n.completion = n.eng.ScheduleOwnedAt(at, n.onCompletionFn)
}

// flushReprice ends the instant's burst: one water-filling over the final
// flow set (if any change needed it, and no same-route swap elides it),
// then the completion event's provisional target is corrected in place.
// Retime preserves the event's sequence number, so ties against other
// events at the same future instant resolve exactly as they always did. A
// burst without a solve priced every flow it added, so the cached minimum
// already stands; an elided swap priced its one new flow.
func (n *Net) flushReprice() {
	n.repricePending = false
	if n.needSolve {
		n.needSolve = false
		if !n.elideSwap() && len(n.flows) > 0 {
			n.recomputeRates()
			n.nextAt = n.earliestCompletion()
		}
	}
	n.endBurst()
	if n.completion == nil {
		return
	}
	now := n.eng.Now()
	at := n.nextAt
	if at < now {
		at = now
	}
	if at != n.completion.Time() {
		n.eng.Retime(n.completion, at)
	}
}

// depleteTo charges f for the bandwidth it enjoyed since its last
// depletion. It is called only when f's rate is about to change (and on
// f's own completion), never because some unrelated flow started or
// finished — so a flow's floating-point accumulation is chopped exactly
// at its own rate-change instants, and a flow change costs work only for
// the flows whose rates it moves, not a pass over every live flow. A flow
// may land fractionally below zero because its completion instant was
// computed in floating point; anything beyond finishEps of overshoot
// means the scheduler lost track of it and is a bug, not drift, so it
// panics instead of silently clamping.
func (f *flow) depleteTo(now sim.Time) {
	if dt := now - f.last; dt > 0 {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			if f.remaining < -finishEps {
				panic(fmt.Sprintf("memsim: flow %d overshot completion by %g bytes", f.seq, -f.remaining))
			}
			f.remaining = 0
		}
	}
	f.last = now
}

const finishEps = 1e-3 // bytes; far below any modelled transfer granularity

// finishAt is the instant f completes at its current rate.
func (f *flow) finishAt() sim.Time { return f.last + f.remaining/f.rate }

// reschedule recomputes max-min fair rates and schedules the next
// completion event.
func (n *Net) reschedule() {
	if len(n.flows) > 0 {
		n.recomputeRates()
	}
	n.scheduleNext()
}

// scheduleNext (re)schedules the completion event for the earliest-
// finishing flow under the current rates.
func (n *Net) scheduleNext() {
	if n.completion != nil {
		n.completion.Cancel()
		n.completion = nil
	}
	n.nextAt = n.earliestCompletion()
	if len(n.flows) == 0 {
		return
	}
	at := n.nextAt
	if now := n.eng.Now(); at < now {
		at = now
	}
	n.completion = n.eng.ScheduleOwnedAt(at, n.onCompletionFn)
}

// earliestCompletion scans every flow, all of which must be priced, for
// the earliest completion instant (+Inf without flows).
func (n *Net) earliestCompletion() sim.Time {
	at := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			panic("memsim: flow with zero rate")
		}
		if t := f.finishAt(); t < at {
			at = t
		}
	}
	return at
}

func (n *Net) onCompletion() {
	n.completion = nil
	now := n.eng.Now()
	remaining := n.flows[:0]
	finished := n.finished[:0]
	n.nextAt = math.Inf(1)
	for _, f := range n.flows {
		// Survivors are judged without mutation: depleting them here would
		// chop their accumulation at another flow's completion instant.
		if rem := f.remaining - f.rate*(now-f.last); rem <= finishEps {
			if rem < -finishEps {
				panic(fmt.Sprintf("memsim: flow %d overshot completion by %g bytes", f.seq, -rem))
			}
			f.remaining, f.last = 0, now
			finished = append(finished, f)
		} else {
			remaining = append(remaining, f)
			if f.rate > 0 && f.finishAt() < n.nextAt {
				n.nextAt = f.finishAt()
			}
		}
	}
	n.flows = remaining
	// Withdraw the finished flows, then check whether the survivors shared
	// any link with them; if not, the max-min allocation of the survivors
	// is unchanged and the full water-filling can be skipped.
	for _, f := range finished {
		for _, u := range f.uses {
			n.linkWeight[u.idx] -= u.mult
		}
	}
	disjoint := true
	for _, f := range finished {
		for _, u := range f.uses {
			if n.linkWeight[u.idx] != 0 {
				disjoint = false
				break
			}
		}
		if !disjoint {
			break
		}
	}
	if len(finished) > 0 && disjoint {
		n.recorded = false
	}
	n.burstDone += len(finished)
	if len(finished) == 1 && n.recorded {
		g := finished[0]
		n.swapRate, n.swapRound = g.rate, g.round
		n.swapUses = append(n.swapUses[:0], g.uses...)
	}
	for _, f := range finished {
		n.finishFlow(f)
	}
	for i, f := range finished {
		n.freeFlow(f)
		finished[i] = nil
	}
	n.finished = finished[:0]
	n.requestReprice(!disjoint)
}

// recomputeRates runs progressive filling (water-filling) with per-link
// multiplicities: raise all unfixed flow rates uniformly until a link
// saturates, fix the flows crossing it, repeat. Only the links the live
// flows cross take part, and a link leaves once its last unfixed flow is
// fixed, so a solve costs O(active links + flow uses) per round however
// large the machine. The unfixed flows stay in n.flows order, which keeps
// every link's fixedLoad accumulation order, and so every rate, bit for
// bit what a pass over all links and flows computes. All working state
// lives in persistent scratch on Net, so the solver allocates nothing.
func (n *Net) recomputeRates() {
	n.rateSolves++
	n.recorded = true
	now := n.eng.Now()
	fixedLoad, weight, saturated := n.wfFixed, n.wfWeight, n.wfSat
	// Collect the links the live flows cross. wfWeight is all zero between
	// solves, so a zero weight marks a link not yet collected. Its working
	// weight starts from the incrementally maintained total; multiplicities
	// are small integers, so the running sum is exact and bit-identical to
	// re-accumulating over the flows.
	links := n.wfLinks[:0]
	for _, f := range n.flows {
		for _, u := range f.uses {
			if weight[u.idx] == 0 {
				weight[u.idx] = n.linkWeight[u.idx]
				fixedLoad[u.idx] = 0
				links = append(links, int(u.idx))
			}
		}
	}
	unfixed := append(n.wfFlows[:0], n.flows...)
	shares := n.wfShare
	for len(unfixed) > 0 {
		// Drop the links whose last unfixed flow was fixed last round and
		// find the bottleneck share over the rest.
		share := math.Inf(1)
		live := links[:0]
		for _, i := range links {
			if weight[i] == 0 {
				continue
			}
			s := (n.bw[i] - fixedLoad[i]) / weight[i]
			shares[len(live)] = s
			live = append(live, i)
			if s < share {
				share = s
			}
		}
		links = live
		if math.IsInf(share, 1) {
			panic("memsim: unfixed flows cross no links")
		}
		if share < 0 {
			share = 0
		}
		// Identify the links saturated at this share, then fix every
		// unfixed flow crossing one of them.
		for k, i := range links {
			saturated[i] = shares[k] <= share*(1+1e-12)
		}
		kept, done := unfixed[:0], n.wfDone[:0]
		for _, f := range unfixed {
			bottled := false
			for _, u := range f.uses {
				if saturated[u.idx] {
					bottled = true
					break
				}
			}
			if !bottled {
				kept = append(kept, f)
				continue
			}
			if share != f.rate {
				f.depleteTo(now)
				f.rate = share
			}
			for _, u := range f.uses {
				fixedLoad[u.idx] += share * u.mult
				weight[u.idx] -= u.mult
			}
			done = append(done, f)
		}
		if len(kept) == len(unfixed) {
			panic("memsim: water-filling made no progress")
		}
		n.recordRound(done)
		n.wfDone = done[:0]
		unfixed = kept
	}
	n.wfLinks, n.wfFlows = links, unfixed
}

// recordRound writes the solve records elideSwap reads for the flows one
// round fixed, in fixing order: each flow's round; for each of their
// links the round, so that once the solve ends linkRun holds the last
// round that fixed a flow on the link, the one its weight drained in; and
// per use whether every flow fixed on the link later in the round has the
// same multiplicity. A reverse pass opens each link's run at its last
// addend and breaks it (mult 0; real multiplicities are >= 1) at the
// first differing one.
func (n *Net) recordRound(done []*flow) {
	n.runRound++
	r := n.runRound
	for k := len(done) - 1; k >= 0; k-- {
		f := done[k]
		f.round = r
		for j := range f.uses {
			u := &f.uses[j]
			lr := &n.linkRun[u.idx]
			if lr.round != r {
				lr.round, lr.mult = r, u.mult
			}
			u.tail = u.mult == lr.mult
			if !u.tail {
				lr.mult = 0
			}
		}
	}
}
