// Package hier is the cluster-level hierarchical collective family: the
// paper's kernel-assisted intra-node protocols composed under a node-leader
// layer, the design of the hybrid MPI+MPI and cluster-model literature.
// Each collective decomposes into three phases — intra-node movement into a
// per-node leader, an inter-node exchange among the leaders over the
// modeled fabric (tree or ring/pipeline shapes), and intra-node fan-out —
// with the intra-node phases reusing the existing machinery unchanged:
// generic algorithms over per-node communicators for small payloads, the
// KNEM linear region protocol (register at the leader, every local peer
// reads or writes through one cookie) for large ones.
//
// The component is built for a compiled topology.Cluster and groups world
// ranks into nodes by the core each rank is pinned to. One leader per node
// is elected at construction: the first member the fault plan's LeaderDown
// set permits (a downed designated leader is routed around by re-election,
// and if every member of a node is marked down, the first member serves
// anyway so the job can proceed). Under a fault plan the KNEM phases
// degrade exactly like internal/core's protocols: failed registrations
// announce a fallback to the generic algorithm, failed copies are retried
// with bounded backoff and then NACKed for a point-to-point resend, and
// every degradation is counted in trace.Stats.
//
// Irregular operations (alltoall and the vector variants) and the
// non-contiguous-mapping cases of gather/scatter/allgather delegate to a
// flat fallback component over the world communicator.
package hier

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/coll/tuned"
	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config parameterizes the hierarchical family.
type Config struct {
	// Inter selects the inter-node exchange shape among the leaders:
	// "tree" (binomial / pipelined binary, the default) or "ring"
	// (pipelined chain).
	Inter string
	// KnemMin is the smallest intra-node payload moved through a KNEM
	// region instead of the generic algorithms (default 16 KiB).
	KnemMin int64
	// InterSeg is the pipeline segment size of the inter-node phase
	// (default 128 KiB).
	InterSeg int64
	// Fallback builds the flat component delegated to for irregular
	// operations (default tuned.New).
	Fallback func(w *mpi.World) mpi.Coll
}

func (c *Config) fill() {
	if c.Inter == "" {
		c.Inter = "tree"
	}
	if c.Inter != "tree" && c.Inter != "ring" {
		panic(fmt.Sprintf("hier: unknown inter-node shape %q", c.Inter))
	}
	if c.KnemMin == 0 {
		c.KnemMin = 16 << 10
	}
	if c.InterSeg == 0 {
		c.InterSeg = 128 << 10
	}
	if c.Fallback == nil {
		c.Fallback = tuned.New
	}
}

// New builds the component factory for a compiled cluster with default
// configuration.
func New(cl *topology.Cluster) func(w *mpi.World) mpi.Coll {
	return NewWithConfig(cl, Config{})
}

// NewWithConfig builds the component factory with explicit configuration.
func NewWithConfig(cl *topology.Cluster, cfg Config) func(w *mpi.World) mpi.Coll {
	cfg.fill()
	return func(w *mpi.World) mpi.Coll { return build(w, cl, cfg) }
}

// Component implements mpi.Coll hierarchically over a cluster.
type Component struct {
	w   *mpi.World
	cl  *topology.Cluster
	cfg Config
	fb  mpi.Coll

	// nodes[d] lists the world ranks on populated node d (dense node
	// numbering, cluster-node order), ascending.
	nodes [][]int
	// nodeOf maps a world rank to its dense node index.
	nodeOf []int
	// leader[d] is node d's leader world rank; leadPos[d] its position in
	// nodes[d] (= its rank in the node communicator).
	leader  []int
	leadPos []int
	// first[d] is the world rank starting node d's block when the mapping
	// is node-contiguous.
	first  []int
	contig bool

	// nodeRank[r] is world rank r's handle on its node communicator;
	// leadRank[r] its handle on the leader communicator (nil for
	// non-leaders). The handles are persistent so comm-scoped collective
	// tags keep advancing across operations.
	nodeRank []*mpi.CommRank
	leadRank []*mpi.CommRank
}

// build assembles the component from the engine's arena: the node/member
// tables are CSR-style — one dense int backing carved into per-node
// sub-slices in rank order — and the handle tables are dense
// rank-indexed slices, so a warmed shard rebuilds the hierarchy without
// heap allocations and node walks scan contiguous memory.
func build(w *mpi.World, cl *topology.Cluster, cfg Config) *Component {
	arena := w.Engine().Arena()
	c := sim.SlabFor[Component](arena).Get()
	c.w, c.cl, c.cfg = w, cl, cfg
	c.fb = cfg.Fallback(w)
	np := w.Size()
	in := w.Knem().Injector()

	ints := sim.SlicesFor[int](arena)
	nn := cl.NNodes()
	counts := ints.Make(nn)
	nodeIdx := ints.Stale(np)
	for r := 0; r < np; r++ {
		n := cl.NodeOfCore(w.Rank(r).Core().ID)
		nodeIdx[r] = n
		counts[n]++
	}
	members := sim.SlicesFor[[]int](arena).Make(nn)
	backing := ints.Stale(np)
	off := 0
	for n := 0; n < nn; n++ {
		members[n] = backing[off : off : off+counts[n]]
		off += counts[n]
	}
	for r := 0; r < np; r++ {
		members[nodeIdx[r]] = append(members[nodeIdx[r]], r)
	}

	populated := 0
	for _, ms := range members {
		if len(ms) > 0 {
			populated++
		}
	}
	c.nodes = sim.SlicesFor[[]int](arena).Make(populated)[:0]
	c.leader = ints.Make(populated)[:0]
	c.leadPos = ints.Make(populated)[:0]
	c.nodeOf = ints.Stale(np)
	for _, ms := range members {
		if len(ms) == 0 {
			continue
		}
		d := len(c.nodes)
		c.nodes = append(c.nodes, ms)
		lead := ms[0]
		if in != nil {
			for _, m := range ms {
				if !in.LeaderDown(m) {
					lead = m
					break
				}
			}
		}
		pos := 0
		for i, m := range ms {
			c.nodeOf[m] = d
			if m == lead {
				pos = i
			}
		}
		c.leader = append(c.leader, lead)
		c.leadPos = append(c.leadPos, pos)
	}

	// A node-contiguous mapping (node d's ranks are exactly one ascending
	// block, blocks in node order) lets gather/scatter/allgather address
	// node extents directly in the global buffer.
	c.contig = true
	c.first = ints.Stale(len(c.nodes))
	next := 0
	for d, ms := range c.nodes {
		c.first[d] = next
		for _, m := range ms {
			if m != next {
				c.contig = false
			}
			next++
		}
	}

	c.nodeRank = sim.SlicesFor[*mpi.CommRank](arena).Make(np)
	c.leadRank = sim.SlicesFor[*mpi.CommRank](arena).Make(np)
	leadComm := w.NewComm(c.leader)
	for _, ms := range c.nodes {
		nc := w.NewComm(ms)
		for _, m := range ms {
			c.nodeRank[m] = nc.Rank(w.Rank(m))
		}
	}
	for _, l := range c.leader {
		c.leadRank[l] = leadComm.Rank(w.Rank(l))
	}
	return c
}

// Leaders returns the elected leader world rank of each populated node, in
// node order.
func (c *Component) Leaders() []int { return append([]int(nil), c.leader...) }

// Name implements mpi.Coll.
func (c *Component) Name() string { return "hier-" + c.cfg.Inter }

// enter applies the per-entry fault bookkeeping (straggler delay).
func (c *Component) enter(r *mpi.Rank) {
	if in := c.w.Knem().Injector(); in != nil {
		if d := in.Straggle(r.ID()); d > 0 {
			r.Sleep(d)
		}
	}
}

// hierCookie announces a leader's KNEM region to its node peers; the zero
// value announces a whole-phase fallback to the generic algorithm.
type hierCookie struct {
	cookie knem.Cookie
	n      int64
}

// --- intra-node building blocks ------------------------------------------

// intraBcast fans v out from the node leader to the node's members:
// generic binomial below KnemMin, otherwise the KNEM linear region
// protocol with core-style degradation. World tags tag+1..tag+3 carry the
// cookie announcement, responses, and resends.
func (c *Component) intraBcast(r *mpi.Rank, v memsim.View, tag int) {
	me := r.ID()
	d := c.nodeOf[me]
	ms := c.nodes[d]
	if len(ms) == 1 {
		return
	}
	nr := c.nodeRank[me]
	lead := c.leader[d]
	if v.Len < c.cfg.KnemMin {
		coll.BcastBinomial(nr, v, c.leadPos[d], nr.CollTag())
		return
	}
	if me == lead {
		ck, ok := coll.TryCreate(r, v, knem.DirRead)
		if !ok {
			coll.NoteFallback(r, "hier-bcast-intra")
			for _, m := range ms {
				if m != me {
					r.SendOOB(m, tag+1, hierCookie{})
				}
			}
			coll.BcastBinomial(nr, v, c.leadPos[d], nr.CollTag())
			return
		}
		for _, m := range ms {
			if m != me {
				r.SendOOB(m, tag+1, hierCookie{cookie: ck, n: v.Len})
			}
		}
		coll.CollectAndResend(r, v, tag+2, tag+3, len(ms)-1, "hier-bcast-intra")
		coll.Destroy(r, ck)
		return
	}
	msg, _ := r.RecvOOB(lead, tag+1)
	cm := msg.(hierCookie)
	if cm.cookie == 0 && cm.n == 0 {
		coll.BcastBinomial(nr, v, c.leadPos[d], nr.CollTag())
		return
	}
	if err := coll.TryCopy(r, v, cm.cookie, 0, knem.DirRead); err != nil {
		r.SendOOB(lead, tag+2, coll.Nack{})
		r.Recv(lead, tag+3, v)
		return
	}
	r.SendOOB(lead, tag+2, coll.Ack{})
}

// interBcast moves v among the leaders, rooted at dense node rootNode.
func (c *Component) interBcast(lr *mpi.CommRank, v memsim.View, rootNode int) {
	if lr.Size() == 1 {
		return
	}
	tag := lr.CollTag()
	if c.cfg.Inter == "ring" {
		coll.BcastChainPipelined(lr, v, rootNode, tag, c.cfg.InterSeg)
		return
	}
	if v.Len <= 64<<10 {
		coll.BcastBinomial(lr, v, rootNode, tag)
		return
	}
	coll.BcastBinaryPipelined(lr, v, rootNode, tag, c.cfg.InterSeg)
}

// --- collectives ---------------------------------------------------------

// Barrier funnels each node through its leader: members report in via OOB
// tokens, the leaders run a dissemination barrier over the fabric, and the
// release tokens fan back out.
func (c *Component) Barrier(r *mpi.Rank) {
	c.enter(r)
	tag := r.CollTag()
	me := r.ID()
	d := c.nodeOf[me]
	lead := c.leader[d]
	if me != lead {
		r.SendOOB(lead, tag, coll.Ack{})
		r.RecvOOB(lead, tag+1)
		return
	}
	ms := c.nodes[d]
	for i := 0; i < len(ms)-1; i++ {
		r.RecvOOB(mpi.AnySource, tag)
	}
	lr := c.leadRank[me]
	coll.Dissemination(lr, lr.CollTag())
	for _, m := range ms {
		if m != me {
			r.SendOOB(m, tag+1, coll.Ack{})
		}
	}
}

// Bcast moves v root → root's node leader → all leaders → all members.
func (c *Component) Bcast(r *mpi.Rank, v memsim.View, root int) {
	c.enter(r)
	tag := r.CollTag()
	me := r.ID()
	rootNode := c.nodeOf[root]
	rootLead := c.leader[rootNode]
	if root != rootLead {
		if me == root {
			r.Send(rootLead, tag, v)
		}
		if me == rootLead {
			r.Recv(root, tag, v)
		}
	}
	if lr := c.leadRank[me]; lr != nil {
		c.interBcast(lr, v, rootNode)
	}
	c.intraBcast(r, v, tag)
}

// Reduce combines intra-node partials at each leader, reduces the partials
// across the leaders to the root's node, and hands the result to the root.
func (c *Component) Reduce(r *mpi.Rank, send, recv memsim.View, op mpi.ReduceOp, root int) {
	c.enter(r)
	tag := r.CollTag()
	me := r.ID()
	d := c.nodeOf[me]
	rootNode := c.nodeOf[root]
	rootLead := c.leader[rootNode]
	nr := c.nodeRank[me]

	var mid memsim.View
	if me == c.leader[d] {
		mid = r.Alloc(send.Len).Whole()
	}
	coll.ReduceBinomial(nr, send, mid, op, c.leadPos[d], nr.CollTag())

	if lr := c.leadRank[me]; lr != nil {
		var out memsim.View
		if me == rootLead {
			if me == root {
				out = recv
			} else {
				out = r.Alloc(send.Len).Whole()
			}
		}
		coll.ReduceBinomial(lr, mid, out, op, rootNode, lr.CollTag())
		if me == rootLead && me != root {
			r.Send(root, tag, out.SubView(0, send.Len))
		}
	}
	if me == root && me != rootLead {
		r.Recv(rootLead, tag, recv.SubView(0, send.Len))
	}
}

// Allreduce reduces to the leaders, allreduces among them, and broadcasts
// the total back into each node.
func (c *Component) Allreduce(r *mpi.Rank, send, recv memsim.View, op mpi.ReduceOp) {
	c.enter(r)
	tag := r.CollTag()
	me := r.ID()
	d := c.nodeOf[me]
	nr := c.nodeRank[me]

	coll.ReduceBinomial(nr, send, recv, op, c.leadPos[d], nr.CollTag())
	if lr := c.leadRank[me]; lr != nil && lr.Size() > 1 {
		tmp := r.Alloc(send.Len).Whole()
		r.LocalCopy(tmp, recv.SubView(0, send.Len))
		if p := lr.Size(); p&(p-1) == 0 {
			coll.AllreduceRecDoubling(lr, tmp, recv, op, lr.CollTag())
		} else {
			coll.ReduceBinomial(lr, tmp, recv, op, 0, lr.CollTag())
			coll.BcastBinomial(lr, recv.SubView(0, send.Len), 0, lr.CollTag())
		}
	}
	c.intraBcast(r, recv.SubView(0, send.Len), tag)
}

// Allgather gathers each node's blocks into its leader's global buffer,
// ring-exchanges the node extents among the leaders, and broadcasts the
// assembled buffer within each node. Requires a node-contiguous mapping;
// other mappings delegate.
func (c *Component) Allgather(r *mpi.Rank, send, recv memsim.View) {
	c.enter(r)
	if !c.contig {
		c.fb.Allgather(r, send, recv)
		return
	}
	tag := r.CollTag()
	me := r.ID()
	d := c.nodeOf[me]
	nr := c.nodeRank[me]
	blk := send.Len
	nodeBlock := recv.SubView(int64(c.first[d])*blk, int64(len(c.nodes[d]))*blk)

	coll.GatherBinomial(nr, send, nodeBlock, c.leadPos[d], nr.CollTag())
	if lr := c.leadRank[me]; lr != nil && lr.Size() > 1 {
		counts := make([]int64, len(c.nodes))
		displs := make([]int64, len(c.nodes))
		for i := range c.nodes {
			counts[i] = int64(len(c.nodes[i])) * blk
			displs[i] = int64(c.first[i]) * blk
		}
		coll.AllgathervRing(lr, nodeBlock, recv, counts, displs, lr.CollTag())
	}
	c.intraBcast(r, recv, tag)
}

// Gather funnels blocks through the node leaders to the root's leader and
// then to the root. Requires a node-contiguous mapping; others delegate.
func (c *Component) Gather(r *mpi.Rank, send, recv memsim.View, root int) {
	c.enter(r)
	if !c.contig {
		c.fb.Gather(r, send, recv, root)
		return
	}
	tag := r.CollTag()
	me := r.ID()
	d := c.nodeOf[me]
	rootNode := c.nodeOf[root]
	rootLead := c.leader[rootNode]
	nr := c.nodeRank[me]
	blk := send.Len

	var nodeBuf memsim.View
	if me == c.leader[d] {
		nodeBuf = r.Alloc(int64(len(c.nodes[d])) * blk).Whole()
	}
	coll.GatherBinomial(nr, send, nodeBuf, c.leadPos[d], nr.CollTag())

	if lr := c.leadRank[me]; lr != nil {
		ltag := lr.CollTag()
		if me != rootLead {
			lr.Send(rootNode, ltag, nodeBuf)
		} else {
			dst := recv
			if me != root {
				dst = r.Alloc(int64(c.w.Size()) * blk).Whole()
			}
			var reqs []*mpi.Request
			for i := range c.nodes {
				ext := dst.SubView(int64(c.first[i])*blk, int64(len(c.nodes[i]))*blk)
				if i == rootNode {
					r.LocalCopy(ext, nodeBuf)
					continue
				}
				reqs = append(reqs, lr.Irecv(i, ltag, ext))
			}
			lr.Wait(reqs...)
			if me != root {
				r.Send(root, tag, dst)
			}
		}
	}
	if me == root && me != rootLead {
		r.Recv(rootLead, tag, recv.SubView(0, int64(c.w.Size())*blk))
	}
}

// Scatter reverses Gather: the root hands the buffer to its leader, node
// extents travel to each leader, and leaders scatter within their nodes.
func (c *Component) Scatter(r *mpi.Rank, send, recv memsim.View, root int) {
	c.enter(r)
	if !c.contig {
		c.fb.Scatter(r, send, recv, root)
		return
	}
	tag := r.CollTag()
	me := r.ID()
	d := c.nodeOf[me]
	rootNode := c.nodeOf[root]
	rootLead := c.leader[rootNode]
	nr := c.nodeRank[me]
	blk := recv.Len

	if me == root && me != rootLead {
		r.Send(rootLead, tag, send.SubView(0, int64(c.w.Size())*blk))
	}
	var nodeBuf memsim.View
	if lr := c.leadRank[me]; lr != nil {
		ltag := lr.CollTag()
		if me == rootLead {
			src := send
			if me != root {
				src = r.Alloc(int64(c.w.Size()) * blk).Whole()
				r.Recv(root, tag, src)
			}
			var reqs []*mpi.Request
			for i := range c.nodes {
				ext := src.SubView(int64(c.first[i])*blk, int64(len(c.nodes[i]))*blk)
				if i == rootNode {
					nodeBuf = ext
					continue
				}
				reqs = append(reqs, lr.Isend(i, ltag, ext))
			}
			lr.Wait(reqs...)
		} else {
			nodeBuf = r.Alloc(int64(len(c.nodes[d])) * blk).Whole()
			lr.Recv(rootNode, ltag, nodeBuf)
		}
	}
	coll.ScatterBinomial(nr, nodeBuf, recv, c.leadPos[d], nr.CollTag())
}

// --- delegated operations ------------------------------------------------

// Alltoall delegates: every pair crosses the fabric anyway, so the flat
// pairwise schedules are already the right shape.
func (c *Component) Alltoall(r *mpi.Rank, send, recv memsim.View) {
	c.enter(r)
	c.fb.Alltoall(r, send, recv)
}

// Gatherv delegates (irregular layouts).
func (c *Component) Gatherv(r *mpi.Rank, send, recv memsim.View, rcounts, rdispls []int64, root int) {
	c.enter(r)
	c.fb.Gatherv(r, send, recv, rcounts, rdispls, root)
}

// Scatterv delegates.
func (c *Component) Scatterv(r *mpi.Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, root int) {
	c.enter(r)
	c.fb.Scatterv(r, send, scounts, sdispls, recv, root)
}

// Allgatherv delegates.
func (c *Component) Allgatherv(r *mpi.Rank, send, recv memsim.View, rcounts, rdispls []int64) {
	c.enter(r)
	c.fb.Allgatherv(r, send, recv, rcounts, rdispls)
}

// Alltoallv delegates.
func (c *Component) Alltoallv(r *mpi.Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, rcounts, rdispls []int64) {
	c.enter(r)
	c.fb.Alltoallv(r, send, scounts, sdispls, recv, rcounts, rdispls)
}

// ReduceScatterBlock delegates.
func (c *Component) ReduceScatterBlock(r *mpi.Rank, send, recv memsim.View, op mpi.ReduceOp) {
	c.enter(r)
	c.fb.ReduceScatterBlock(r, send, recv, op)
}
