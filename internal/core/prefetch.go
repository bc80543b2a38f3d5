package core

import (
	"runtime"
	"sync"
)

// This file implements the speculative pointer-graph prefetcher
// (Options.Prefetch). Installing a fetched object swizzles the pointers
// inside it, reserving slots on fresh protected pages the application has
// not touched yet — the swizzle table therefore already knows, one hop
// ahead, which pages a pointer-chasing traversal can reach next. The
// prefetcher turns that knowledge into bounded background work: after a
// completed exchange with an origin it picks up to depth non-resident
// pages from that origin's frontier (swizzle.Table.PrefetchCandidates) and
// completes them through the ordinary completePage path, overlapping
// their round trips with the application's own computation.
//
// Speculation is never load-bearing:
//
//   - A speculative completion is the same code path as a demand fault —
//     stale warm entries revalidate first in a hashed FETCH, installs
//     serialize under installMu, page protection is released only when
//     every entry is resident — so a prefetched page is indistinguishable
//     from a demand-fetched one.
//   - A demand fault on a page whose speculative exchange is in flight
//     joins it through the in-flight registry (completeFrom) instead of
//     re-requesting; if that exchange fails, the registry entry is gone
//     by the time the joiner wakes, and its completion loop issues a
//     plain demand fetch. Failure costs the demand path nothing but the
//     wait it chose to share.
//   - Errors in a speculative completion are dropped silently; the page
//     simply stays protected and faults on first use.
//
// Teardown discipline: pfDrain disables the prefetcher and waits out
// every in-flight speculative completion before any session-teardown path
// (EndSession, serveInvalidate, AbortSession) touches the cache, so
// speculative installs never race demotion or invalidation.

// prefetchDepth bounds the in-flight speculative fetches per origin. Two
// keeps one exchange in flight while the next candidate is being selected
// — enough to hide the round trip on a linear pointer chase without
// flooding the origin.
const prefetchDepth = 2

// prefetcher is the per-runtime speculation state; nil unless enabled.
type prefetcher struct {
	mu   sync.Mutex
	sync bool // run completions inline (Options.SyncPrefetch)
	// sess is the session speculation is running for; 0 disables pokes.
	sess uint64
	// queued marks pages a speculative completion was launched for this
	// session (dedup).
	queued map[uint32]bool
	// outstanding counts in-flight speculative completions per origin.
	outstanding map[uint32]int
	wg          sync.WaitGroup
}

func newPrefetcher(sync bool) *prefetcher {
	return &prefetcher{
		sync:        sync,
		queued:      make(map[uint32]bool),
		outstanding: make(map[uint32]int),
	}
}

// pfBegin arms the prefetcher for a new session.
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

// pfPoke is the speculation trigger: called after a completed exchange
// with origin (demand or speculative), it launches background completions
// for up to prefetchDepth of the origin's non-resident frontier pages.
// Cheap and non-blocking when speculation is disabled, the session has
// ended, or the origin's in-flight budget is spent.
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
		p.wg.Add(1)
		launch = append(launch, pn)
	}
	p.mu.Unlock()
	if p.sync {
		for _, pn := range launch {
			rt.pfRun(sess, origin, pn)
		}
		return
	}
	for _, pn := range launch {
		go rt.pfRun(sess, origin, pn)
	}
	if len(launch) > 0 {
		// Yield so the fetchers can issue their requests now. A speculative
		// completion needs only a sliver of CPU before it blocks on the
		// network; without the yield, a single-processor runtime would not
		// schedule it until the application next blocks — which is exactly
		// the demand fault the speculation was meant to preempt.
		runtime.Gosched()
	}
}

// pfRun is one background speculative completion. Errors are dropped: the
// page stays protected and the demand path fetches it on first use.
func (rt *Runtime) pfRun(sess uint64, origin, pn uint32) {
	p := rt.pf
	err := rt.completePage(sess, pn, true)
	p.mu.Lock()
	p.outstanding[origin]--
	p.mu.Unlock()
	p.wg.Done()
	if err == nil {
		// Chain one hop deeper: the install just performed may have
		// swizzled a fresh frontier.
		rt.pfPoke(origin)
	}
}

// pfDrain disables speculation and waits out every in-flight speculative
// completion. It must run before any teardown path invalidates or demotes
// the cache: a speculative install racing the demotion would corrupt the
// baseline.
func (rt *Runtime) pfDrain() {
	p := rt.pf
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.sess == 0 {
		p.mu.Unlock()
		return
	}
	p.sess = 0
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	clear(p.queued)
	clear(p.outstanding)
	p.mu.Unlock()
}
