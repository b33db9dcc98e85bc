package core

import (
	"repro/internal/coll"
	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
)

// Hierarchical pipelined Broadcast (§IV, Fig. 1).
//
// Ranks are split into sets by NUMA domain. The first tree level holds one
// leader per domain (the root acts as leader of its own domain); every
// other rank is a leaf under its domain leader. A single transfer crosses
// the interconnect toward each remote domain (the leader's read), leaves
// read from their leader's buffer — which their shared cache has just been
// warmed with — and the transfer is segmented so leaf copies of segment s
// overlap the leader's read of segment s+1.
//
// Out-of-band protocol per Broadcast (tag strides):
//
//	tag+0  root   -> locals & remote leaders : root region cookie
//	tag+1  locals & remote leaders -> root   : final response
//	tag+2  leader -> its members             : leader region cookie
//	tag+3  leader -> its members             : "segment s landed"
//	tag+4  members -> leader                 : final response
//	tag+5  root   -> a NACKer                : resent data
//	tag+6  leader -> its members             : streamed segments, resent data
//
// Degradation happens at every level: a root that cannot register falls
// the whole operation back (leaders pass the verdict to their leaves); a
// leader that cannot register streams segments to its leaves
// point-to-point; a reader that loses its source region NACKs once and
// receives the remainder point-to-point, while still consuming the stale
// segment notifications its provider keeps sending.

func (c *Component) bcastHierarchical(r *mpi.Rank, v memsim.View, root int) {
	tag := r.CollTag()
	me := r.ID()
	rootDom := c.domainOf[root]
	myDom := c.domainOf[me]
	seg := c.segSize(v.Len)

	leaderOf := func(d int) int {
		if d == rootDom {
			return root
		}
		return c.members[d][0]
	}

	switch {
	case me == root:
		ck, ok := c.register(r, v, knem.DirRead, "bcast-hier")
		m := offer(ok, cookieMsg{cookie: ck, n: v.Len})
		targets := 0
		for _, peer := range c.members[rootDom] {
			if peer != root {
				r.SendOOB(peer, tag, c.ck(m))
				targets++
			}
		}
		for d := range c.members {
			if d != rootDom && len(c.members[d]) > 0 {
				r.SendOOB(leaderOf(d), tag, c.ck(m))
				targets++
			}
		}
		if !ok {
			c.fb.Bcast(r, v, root)
			return
		}
		c.finishRoot(r, ck, v, tag+1, tag+5, targets, "bcast-hier")

	case myDom == rootDom:
		// Local leaf of the root's domain: one direct full read.
		msg, _ := r.RecvOOB(root, tag)
		cm := c.cookieOf(msg)
		if opFallback(cm) {
			c.fb.Bcast(r, v, root)
			return
		}
		c.access(r, v, cm.cookie, 0, knem.DirRead, root, tag+1, tag+5)

	case me == leaderOf(myDom):
		c.bcastLeader(r, v, root, tag, seg)

	default:
		c.bcastLeaf(r, v, root, leaderOf(myDom), tag, seg)
	}
}

// bcastLeader pulls the message from the root segment by segment,
// announcing each landed segment to its domain's leaves.
func (c *Component) bcastLeader(r *mpi.Rank, v memsim.View, root, tag int, seg int64) {
	me := r.ID()
	// A non-root-domain leader is always its domain's first member (see
	// leaderOf), so the leaves are simply the rest of the member table —
	// no per-call slice build on the steady-state broadcast path.
	leaves := c.members[c.domainOf[me]][1:]
	msg, _ := r.RecvOOB(root, tag)
	cm := c.cookieOf(msg)
	if opFallback(cm) {
		for _, l := range leaves {
			r.SendOOB(l, tag+2, c.ck(cookieMsg{}))
		}
		c.fb.Bcast(r, v, root)
		return
	}
	rootCk := cm.cookie

	if len(leaves) == 0 {
		// Alone on the domain: a single full read, no local level.
		c.access(r, v, rootCk, 0, knem.DirRead, root, tag+1, tag+5)
		return
	}
	// Without a region of its own the leader announces streaming mode
	// (zero cookie, nonzero length) and pushes each segment point-to-point.
	ownCk, haveRegion := c.register(r, v, knem.DirRead, "bcast-hier-leader")
	for _, l := range leaves {
		r.SendOOB(l, tag+2, c.ck(cookieMsg{cookie: ownCk, n: v.Len}))
	}
	rootOK := true
	var streamSends []*mpi.Request
	s := 0
	eachSegment(v.Len, seg, func(off, n int64) {
		if rootOK {
			rootOK = c.pull(r, v, off, n, rootCk, root, tag+1, tag+5)
		}
		for _, l := range leaves {
			if haveRegion {
				r.SendOOB(l, tag+3, c.sg(s))
			} else {
				streamSends = append(streamSends, r.Isend(l, tag+6, v.SubView(off, n)))
			}
		}
		s++
	})
	r.Wait(streamSends...)
	// The leader's duty to the root ends with its own reads; its region
	// must only outlive the leaves' reads.
	if rootOK {
		r.SendOOB(root, tag+1, coll.Ack{})
	}
	if haveRegion {
		c.finishRoot(r, ownCk, v, tag+4, tag+6, len(leaves), "bcast-hier-leader")
	}
}

// bcastLeaf reads each segment from its leader's region as soon as the
// leader announces it.
func (c *Component) bcastLeaf(r *mpi.Rank, v memsim.View, root, leader, tag int, seg int64) {
	msg, _ := r.RecvOOB(leader, tag+2)
	cm := c.cookieOf(msg)
	if opFallback(cm) {
		c.fb.Bcast(r, v, root)
		return
	}
	if cm.cookie == 0 {
		// Streaming leader: segments arrive point-to-point, no response.
		eachSegment(v.Len, seg, func(off, n int64) {
			r.Recv(leader, tag+6, v.SubView(off, n))
		})
		return
	}
	alive := true
	s := 0
	eachSegment(v.Len, seg, func(off, n int64) {
		// Always consume the notification: the leader keeps sending them
		// even after this leaf lost the region.
		ready, _ := r.RecvOOB(leader, tag+3)
		if got := c.segOf(ready); got != s {
			panic("core: pipeline segment out of order")
		}
		if alive {
			alive = c.pull(r, v, off, n, cm.cookie, leader, tag+4, tag+6)
		}
		s++
	})
	if alive {
		r.SendOOB(leader, tag+4, coll.Ack{})
	}
}
