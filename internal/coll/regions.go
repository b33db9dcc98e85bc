package coll

import (
	"fmt"

	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
)

// KNEM region degradation shared by the region protocols (internal/core,
// internal/coll/hier). Under a fault plan a failed registration degrades
// the operation, a failed copy is retried with the plan's bounded backoff
// and then NACKed for a point-to-point resend from the data's owner, and
// every degradation is counted in trace.Stats. Without a fault injector a
// failing KNEM call is a bug and panics.
//
// Invariants every protocol keeps:
//
//   - A region owner never deregisters while a peer might still access the
//     region: owners collect exactly one response (Ack or Nack) per peer
//     that was handed the cookie.
//   - A peer that loses a region mid-operation never blocks a loop the
//     owner's progress depends on: stale notifications keep being
//     consumed, and resent data is received where the owner sends it.
//   - Peers of an owner that never had a region (registration failed) send
//     no responses: nobody collects them.

// Ack is a peer's response for a completed region access. It is
// zero-size, so boxing it into an out-of-band message allocates nothing.
type Ack struct{}

// Nack is a peer's response for a failed region access: Off is the first
// byte it still needs, to be resent point-to-point.
type Nack struct {
	Off int64
}

// Nacked is one Nack an owner collected: the peer and its offset.
type Nacked struct {
	From int
	Off  int64
}

// TryCreate registers v, retrying transient failures with the plan's
// backoff. A persistent failure under a fault plan returns ok=false for
// the caller to degrade.
func TryCreate(r *mpi.Rank, v memsim.View, dir knem.Direction) (knem.Cookie, bool) {
	in := r.Knem().Injector()
	for attempt := 0; ; attempt++ {
		ck, err := r.Knem().CreateView(r.Proc(), r.ID(), v, dir)
		switch {
		case err == nil:
			return ck, true
		case in == nil:
			panic(fmt.Sprintf("coll: rank %d knem create: %v", r.ID(), err))
		case err == knem.ErrAgain && attempt < in.MaxRetries():
			r.Stats().Retries++
			r.Sleep(in.Backoff(attempt))
		default:
			return 0, false
		}
	}
}

// TryCopy copies through a region, retrying transient failures. The
// terminal error (invalid cookie, or a transient that outlived the retry
// budget) is returned for the caller's Nack path.
func TryCopy(r *mpi.Rank, local memsim.View, ck knem.Cookie, off int64, dir knem.Direction) error {
	in := r.Knem().Injector()
	for attempt := 0; ; attempt++ {
		err := r.Knem().CopyView(r.Proc(), r.Core(), local, ck, off, dir)
		switch {
		case err == nil:
			return nil
		case in == nil:
			panic(fmt.Sprintf("coll: rank %d knem copy: %v", r.ID(), err))
		case err == knem.ErrAgain && attempt < in.MaxRetries():
			r.Stats().Retries++
			r.Sleep(in.Backoff(attempt))
		default:
			return err
		}
	}
}

// Destroy deregisters a region; the zero cookie (no region) is a no-op.
// Under a fault plan a region already torn down by an injected
// invalidation is tolerated.
func Destroy(r *mpi.Rank, ck knem.Cookie) {
	if ck == 0 {
		return
	}
	err := r.Knem().Destroy(r.Proc(), ck)
	if err != nil && (err != knem.ErrInvalidCookie || r.Knem().Injector() == nil) {
		panic(fmt.Sprintf("coll: rank %d knem destroy: %v", r.ID(), err))
	}
}

// NoteFallback counts one degraded operation.
func NoteFallback(r *mpi.Rank, op string) {
	r.Stats().Fallbacks++
	if in := r.Knem().Injector(); in != nil {
		in.Event("fallback", fmt.Sprintf("rank %d %s", r.ID(), op))
	}
}

// NoteResend counts one point-to-point resend of lost region data.
func NoteResend(r *mpi.Rank, op string) {
	r.Stats().Resends++
	if in := r.Knem().Injector(); in != nil {
		in.Event("resend", fmt.Sprintf("rank %d %s", r.ID(), op))
	}
}

// Collect receives one response from each of n peers on respTag and
// returns the Nacks among them in arrival order. The list is allocated
// only when a Nack arrives.
func Collect(r *mpi.Rank, respTag, n int) []Nacked {
	var nacks []Nacked
	for i := 0; i < n; i++ {
		m, from := r.RecvOOB(mpi.AnySource, respTag)
		if nk, ok := m.(Nack); ok {
			nacks = append(nacks, Nacked{From: from, Off: nk.Off})
		}
	}
	return nacks
}

// CollectAndResend collects n responses and serves every Nack with a
// point-to-point send of v from the requested offset on dataTag.
func CollectAndResend(r *mpi.Rank, v memsim.View, respTag, dataTag, n int, op string) {
	for _, nk := range Collect(r, respTag, n) {
		NoteResend(r, op)
		r.Send(nk.From, dataTag, v.SubView(nk.Off, v.Len-nk.Off))
	}
}
