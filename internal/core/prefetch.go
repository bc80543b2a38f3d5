package core

import (
	"runtime"
	"slices"
	"sync"
)

// This file implements the speculative pointer-graph prefetcher
// (Options.Prefetch). Installing a fetched object swizzles the pointers
// inside it, reserving slots on fresh protected pages the application has
// not touched yet — the swizzle table therefore already knows, one hop
// ahead, which pages a pointer-chasing traversal can reach next. The
// prefetcher turns that knowledge into bounded background exchanges:
// after a completed exchange with an origin it picks up to depth
// non-resident pages from that origin's frontier
// (swizzle.Table.PrefetchCandidates), offers each one's missing entries
// from the table, and sends the FETCHes, overlapping their round trips
// with the application's own computation.
//
// Speculation never installs off the thread of control. The candidate
// walk and the offer run on the thread that just installed; only the
// exchange runs on a background receiver, which parks the reply frames
// (fetch.go, receive). The thread of control installs them at its next
// fault or control transfer, through the same installFetchFrame a demand
// reply takes, and the install of the exchange's end record chains the
// next poke. Under Options.SyncPrefetch the exchange runs inline on the
// thread of control, which installs its frames as they come.
//
// Speculation is never load-bearing:
//
//   - A prefetched page is indistinguishable from a demand-fetched one:
//     stale warm entries revalidate in a hashed FETCH, and page
//     protection is released only when every entry is resident.
//   - A demand fault on a page whose speculative exchange is in flight
//     joins it through the in-flight registry (completeFrom): it installs
//     the frames as they park and re-scans the page. If the exchange
//     fails, its end record retires the registry entry and the fault
//     issues a plain demand fetch.
//   - Errors in a speculative exchange are dropped silently; the page
//     simply stays protected and faults on first use.
//
// Teardown discipline: EndSession, serveInvalidate and AbortSession
// disarm the prefetcher and drop every parked frame and registry entry
// (dropParked) before they touch the cache. They wait for nothing: a
// receiver still running releases its late frames, and Close reaps it.

// prefetchDepth bounds the in-flight speculative fetches per origin. Two
// keeps one exchange in flight while the next candidate is being selected
// — enough to hide the round trip on a linear pointer chase without
// flooding the origin.
const prefetchDepth = 2

// prefetcher is the per-runtime speculation state; nil unless enabled.
type prefetcher struct {
	mu   sync.Mutex
	sync bool // run exchanges inline (Options.SyncPrefetch)
	// sess is the session speculation is running for; 0 disables pokes.
	sess uint64
	// queued marks the pages predicted this session that are not to be
	// predicted again: in flight, failed, or left to the demand path
	// (dedup).
	queued map[uint32]bool
	// outstanding counts in-flight speculative exchanges per origin.
	outstanding map[uint32]int
}

func newPrefetcher(sync bool) *prefetcher {
	return &prefetcher{
		sync:        sync,
		queued:      make(map[uint32]bool),
		outstanding: make(map[uint32]int),
	}
}

// pfBegin arms the prefetcher for a new session, or disarms it (sess 0).
func (rt *Runtime) pfBegin(sess uint64) {
	p := rt.pf
	if p == nil {
		return
	}
	p.mu.Lock()
	p.sess = sess
	clear(p.queued)
	clear(p.outstanding)
	p.mu.Unlock()
}

// pfPoke is the speculation trigger: called on the thread of control
// after a completed exchange with origin (demand or speculative), it
// launches speculative exchanges for up to prefetchDepth of the origin's
// non-resident frontier pages. Cheap and non-blocking when speculation is
// disabled, the session has ended, or the origin's in-flight budget is
// spent.
func (rt *Runtime) pfPoke(origin uint32) {
	p := rt.pf
	if p == nil {
		return
	}
	p.mu.Lock()
	sess := p.sess
	out := p.outstanding[origin]
	p.mu.Unlock()
	if sess == 0 || out >= prefetchDepth {
		return
	}
	// Candidate selection walks the swizzle table outside p.mu (the table
	// has its own lock); over-fetch a little so queued pages don't starve
	// the launch loop below.
	cands := rt.table.PrefetchCandidates(origin, prefetchDepth*2)
	if len(cands) == 0 {
		return
	}
	p.mu.Lock()
	if p.sess != sess {
		p.mu.Unlock()
		return
	}
	var launch []uint32
	for _, pn := range cands {
		if p.queued[pn] {
			continue
		}
		if p.outstanding[origin] >= prefetchDepth {
			break
		}
		p.queued[pn] = true
		p.outstanding[origin]++
		launch = append(launch, pn)
	}
	p.mu.Unlock()
	for _, pn := range launch {
		rt.pfLaunch(sess, origin, pn, p.sync)
	}
	if len(launch) > 0 && !p.sync {
		// Yield so the receivers can issue their requests now. A
		// speculative exchange needs only a sliver of CPU before it blocks
		// on the network; without the yield, a single-processor runtime
		// would not schedule it until the application next blocks — which
		// is exactly the demand fault the speculation was meant to preempt.
		runtime.Gosched()
	}
}

// pfLaunch starts one speculative exchange for page pn from origin. The
// registration and the offer happen here, on the thread of control; the
// exchange runs on a background receiver, which parks the reply, or,
// inline (Options.SyncPrefetch), right here, installing it as it comes. A
// page whose exchange is already in flight, or which has nothing left to
// offer, frees its budget at once.
func (rt *Runtime) pfLaunch(sess uint64, origin, pn uint32, inline bool) {
	var plainBuf, staleBuf [4]uint32
	_, staleFrom, _ := rt.table.PageOrigins(pn, plainBuf[:0], staleBuf[:0])
	f := &inflightFetch{fetchKey: fetchKey{pn: pn, origin: origin}, sess: sess, spec: true, stale: slices.Contains(staleFrom, origin)}
	rt.inflightMu.Lock()
	busy := rt.inflight[f.fetchKey] != nil
	if !busy {
		rt.inflight[f.fetchKey] = f
	}
	rt.inflightMu.Unlock()
	if busy {
		rt.pfSettle(origin, pn, false)
		return
	}
	done, detached, _ := rt.fetchFrom(f, !inline)
	if detached {
		return // installing the end record settles and chains it
	}
	rt.retire(f)
	rt.pfSettle(origin, pn, done)
	if done {
		// Chain one hop deeper: the install just performed may have
		// swizzled a fresh frontier.
		rt.pfPoke(origin)
	}
}

// pfSettle books the end of a speculative completion of page pn: the
// origin's in-flight budget frees, and a page whose exchange succeeded
// may be predicted again if the install left it incomplete (the fault
// path's completion loop, one exchange per prediction).
func (rt *Runtime) pfSettle(origin, pn uint32, again bool) {
	p := rt.pf
	p.mu.Lock()
	p.outstanding[origin]--
	if again {
		delete(p.queued, pn)
	}
	p.mu.Unlock()
}
