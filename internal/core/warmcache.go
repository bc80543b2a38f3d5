package core

import "smartrpc/internal/swizzle"

// This file implements the warm cross-session cache. The paper's protocol
// (§3.4) discards every cached page at session end, so each new session
// pays the full fault-and-fetch cost again even when the origin data never
// changed. Here the end-of-session invalidation *demotes* instead: table
// rows become stale (swizzle.Entry.Stale) and page bytes survive under
// ProtNone (vmem.DemoteCache) — nothing else is recorded, so a teardown
// costs one pass over the table whether or not a later session ever comes.
// The next session's first fault over a stale page sends an ordinary
// FETCH that carries hashes (completePage's stale pass): its wants are the
// faulting page's stale entries plus the stale ride-alongs in its closure
// neighborhood, each with the hash of its demoted encoding, and the origin
// answers each with a zero-byte ItemCurrent token or the full body — an
// unchanged working set costs one small round trip instead of N full
// fetches. The origin remembers nothing about what it served: it answers
// from its heap and the offered hash.
//
// Safety rests on two rules:
//
//   - The client's revalidation baseline IS the demoted page: the offered
//     hash is of the canonical encoding of the page bytes taken when the
//     request is built (offer), never of a copy kept from an
//     earlier install. A stale page sits under ProtNone and only an install
//     (which ends the entry's staleness) writes to it, so page and baseline
//     cannot disagree.
//   - The content hash is authoritative for token decisions: the origin
//     answers "current" only when the hash of its *current* encoding
//     equals the offered hash. A dropped or corrupted reply can therefore
//     never set up a later token that promotes bytes differing from the
//     origin's — the failure mode of version-lockstep schemes.
//
// Any failure degrades transparently: whatever the exchange left
// unanswered loses its stale mark and is refetched in full by the ordinary
// wants pass. Correctness never depends on warm state.

// warmEnabled reports whether this runtime keeps its cache warm across
// sessions. Only the smart policy caches through the data allocation
// table in a way demotion can preserve.
func (rt *Runtime) warmEnabled() bool {
	return rt.policy == PolicySmart && !rt.noWarmCache
}

// demoteWarm is the warm-cache replacement for the hard local
// invalidation at session teardown: it demotes the table rows and
// re-protects the cache pages in place. Nothing is encoded or recorded —
// the pages are the baseline. A provisional row surviving to teardown
// means the protocol already failed, and the cache falls back to the hard
// invalidation — losing warmth, never correctness.
func (rt *Runtime) demoteWarm() {
	provisional := false
	rt.table.Visit(func(e swizzle.Entry) bool {
		provisional = uint32(e.LP.Addr) >= provisionalBase
		return !provisional
	})
	if provisional {
		rt.demoteFallback()
		return
	}
	rt.table.DemoteAll()
	rt.space.DemoteCache()
}

// demoteFallback is the hard local invalidation demoteWarm retreats to.
func (rt *Runtime) demoteFallback() {
	rt.space.InvalidateCache()
	rt.table.Invalidate()
}
