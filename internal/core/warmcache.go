package core

import "smartrpc/internal/swizzle"

// This file implements the warm cross-session cache. The paper's protocol
// (§3.4) discards every cached page at session end, so each new session
// pays the full fault-and-fetch cost again even when the origin data never
// changed. Here the end-of-session invalidation *demotes* instead: table
// rows become stale (swizzle.Entry.Stale) and page bytes survive under
// ProtNone (vmem.DemoteCache) — nothing is encoded at teardown, so it
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
//     hash is of the canonical encoding of the page bytes. offer computes
//     it when the request is built, unless the row carries a memo
//     (swizzle.Tx.Memo): the hash recorded where the warm path last had
//     it — offer's own encode of a row without one, or the full body a
//     hashed FETCH's reply installed. A memo survives an ItemCurrent
//     promotion, so an unchanged working set is offered without a single
//     encode from its second warm session on. A stale page sits under
//     ProtNone and only an install writes to it, and the memo is dropped
//     wherever page and memo could part:
//     1. a fetch-path or coherency-path decode over the row (installBatch;
//     a cold install only clears a memo that is set, so it neither hashes
//     nor stores per item);
//     2. a Touched mark at DemoteAll — the session wrote the datum;
//     3. any row removal (ExtendedFree, a Rebind eviction), since a stale
//     row may point at the removed datum: Offer ignores every memo until
//     the next DemoteAll clears them all;
//     4. hard invalidation and AbortSession, which drop the rows.
//     CheckIdleInvariants re-derives every memo from its page.
//   - The content hash is authoritative for token decisions: the origin
//     answers "current" only when the hash of its *current* encoding
//     equals the offered hash. A dropped or corrupted reply can therefore
//     never set up a later token that promotes bytes differing from the
//     origin's — the failure mode of version-lockstep schemes. The hash
//     is wire.Sum64 (XXH64) on both sides; a peer hashing differently only
//     ever misses, so every want comes back as a full body.
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
// re-protects the cache pages in place. Nothing is encoded or hashed —
// the pages are the baseline, and the memos stay with the rows. A provisional row surviving to teardown
// means the protocol already failed, and the cache falls back to the hard
// invalidation — losing warmth, never correctness.
func (rt *Runtime) demoteWarm() {
	provisional := false
	rt.table.Visit(func(e swizzle.Entry) bool {
		provisional = uint32(e.LP.Addr) >= provisionalBase
		return !provisional
	})
	if provisional {
		rt.table.Invalidate()
		return
	}
	rt.table.DemoteAll()
	rt.space.DemoteCache()
}
