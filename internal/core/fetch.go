package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// onFault is the runtime's access-violation handler: the software analogue
// of the SIGSEGV handler the paper installs with the operating system
// kernel (§3.2). Read faults on protected pages trigger the fetch of all
// data allocated to the page; write faults on read-only pages implement
// dirty detection for the coherency protocol (§3.4).
func (rt *Runtime) onFault(f vmem.Fault) error {
	prot, err := rt.space.ProtOf(f.Page)
	if err != nil {
		return err
	}
	rt.trace(Event{Kind: EvFault, Page: f.Page})
	if prot == vmem.ProtRead {
		if f.Kind != vmem.FaultWrite {
			return fmt.Errorf("core: read fault on readable page %d", f.Page)
		}
		// Dirty detection: first write to a clean cached page.
		if err := rt.space.MarkDirty(f.Page, true); err != nil {
			return err
		}
		return rt.space.SetProt(f.Page, vmem.ProtReadWrite)
	}
	// ProtNone: the first access to a protected page area. Fetch every
	// datum allocated to the page — once protection is released, a first
	// access to the others could no longer be detected.
	if err := rt.fetchPage(f.Page); err != nil {
		return err
	}
	if f.Kind == vmem.FaultWrite {
		if err := rt.space.MarkDirty(f.Page, true); err != nil {
			return err
		}
		return rt.space.SetProt(f.Page, vmem.ProtReadWrite)
	}
	return nil
}

// fetchKey identifies one unit of in-flight completion work: one cache
// page's FETCH exchange with one origin.
type fetchKey struct {
	pn     uint32
	origin uint32
}

// inflightFetch is one registry entry. done closes after the exchange
// finishes AND the entry has been removed from the registry, so a joiner
// that wakes and still finds the page incomplete re-enters the loop and
// issues its own request — a failed speculative fetch can park a demand
// fault only for the duration of the failure, never indefinitely.
//
// primary closes as soon as the exchange's primary wants — the faulting
// page's own entries — are resident, which on a streamed reply happens
// while later chunks are still in flight. Joiners wake on it so a demand
// fault is unblocked by the first chunk, not the last; a joiner that
// finds primary already closed is watching a background drain and waits
// for its next progress tick — each installed chunk may have made the
// joiner's entries resident, and a fault's latency must track the chunk
// that satisfies it, not the end of the stream. done still marks the
// slot's release (the page's remaining work becomes claimable only
// then).
type inflightFetch struct {
	spec        bool
	primary     chan struct{}
	primaryOnce sync.Once
	done        chan struct{}

	// missing is the primary wants a streamed reply has not delivered yet
	// (installFetchFrame); nil until a reply turns out to have more than
	// one frame.
	missing map[wire.LongPtr]bool

	// tick is the drain's progress broadcast: closed and replaced after
	// every chunk install, under tickMu.
	tickMu sync.Mutex
	tick   chan struct{}
}

func newInflightFetch(spec bool) *inflightFetch {
	return &inflightFetch{
		spec:    spec,
		primary: make(chan struct{}),
		done:    make(chan struct{}),
		tick:    make(chan struct{}),
	}
}

// signalPrimary marks the primary wants resident (idempotent).
func (f *inflightFetch) signalPrimary() {
	f.primaryOnce.Do(func() { close(f.primary) })
}

// progress wakes every joiner parked on the drain: a chunk installed,
// so a re-scan may find their entries resident.
func (f *inflightFetch) progress() {
	f.tickMu.Lock()
	close(f.tick)
	f.tick = make(chan struct{})
	f.tickMu.Unlock()
}

// progressCh returns the channel the next progress call will close.
func (f *inflightFetch) progressCh() <-chan struct{} {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	return f.tick
}

// fetchPage is the demand entry point: it completes page pn on behalf of
// the faulting application thread.
func (rt *Runtime) fetchPage(pn uint32) error {
	rt.sessMu.Lock()
	sess := rt.sess
	rt.sessMu.Unlock()
	if sess == 0 {
		return fmt.Errorf("core: page fault on cached data outside a session (page %d)", pn)
	}
	return rt.completePage(sess, pn, false)
}

// completePage makes every entry allocated to page pn resident, from
// however many origins the page spans. Installing an object swizzles the
// pointers inside it, which can reserve fresh slots on this very page
// while it still has room — so the fetch iterates until every entry
// allocated to the page is resident, upholding §3.2's rule that all data
// allocated to a page is transferred before its protection is released.
//
// Per pass, the page's missing entries group by origin; stale warm-cache
// entries are revalidated first (one hashed FETCH per origin,
// warmcache.go), before anything is fetched in full. Every entry offered
// ends its exchange resident or degraded to a plain want, so each pass
// makes progress. All per-origin exchanges of a pass are issued
// concurrently and joined — a PolicyMixed page spanning N origins pays one
// round-trip time, not N — and each exchange routes through the in-flight
// registry, so concurrent completions of the same (page, origin) — a
// demand fault overtaking a speculative prefetch, or two application
// threads faulting together — coalesce onto one pending reply instead of
// re-requesting.
//
// spec marks a speculative (prefetcher-issued) completion: its fetches
// carry the accounting flag, a missing page is not an error (the row may
// have been invalidated since prediction), and it never steals a demand
// fault's place in the registry.
func (rt *Runtime) completePage(sess uint64, pn uint32, spec bool) error {
	for pass := 0; ; pass++ {
		var plainBuf, staleBuf [4]uint32
		origins, staleFrom, entries := rt.table.PageOrigins(pn, plainBuf[:0], staleBuf[:0])
		if pass == 0 && entries == 0 {
			if spec {
				return nil
			}
			return fmt.Errorf("core: fault on cache page %d with no allocation table entries", pn)
		}
		stale := len(staleFrom) > 0
		if stale {
			origins = staleFrom
		}
		var err error
		switch len(origins) {
		case 0:
			return nil
		case 1: // the paper's allocation heuristic: one origin per page
			err = rt.completeFrom(sess, pn, origins[0], spec, stale)
		default:
			err = fanOut(origins, func(origin uint32) error {
				return rt.completeFrom(sess, pn, origin, spec, stale)
			})
		}
		if err != nil {
			return err
		}
	}
}

// completeFrom runs one (page, origin) exchange through the in-flight
// registry: if the pair is already outstanding — typically a speculative
// prefetch the application has now caught up with — the caller parks on
// the pending completion instead of re-requesting; otherwise it registers
// the exchange and performs it. Either way the caller's completion loop
// re-scans the page afterwards, so a joiner whose fetch failed on the
// other goroutine simply issues its own (a demand fault never inherits a
// speculative failure — it degrades to a plain demand fetch).
func (rt *Runtime) completeFrom(sess uint64, pn, origin uint32, spec, stale bool) error {
	key := fetchKey{pn: pn, origin: origin}
	rt.inflightMu.Lock()
	if f := rt.inflight[key]; f != nil {
		rt.inflightMu.Unlock()
		if !spec {
			rt.stats.pfCoalesced.Add(1)
			if f.spec {
				rt.trace(Event{Kind: EvPrefetchHit, Page: pn, Target: origin})
			}
		}
		// If the exchange's primary signal already fired, the entry is a
		// background drain of a streamed reply: waking on primary again
		// would spin (the caller's re-scan finds the same drain). Wait
		// for the drain's next chunk to install — the re-scan may then
		// find this caller's entries resident long before the stream
		// ends — or for the slot's release, whichever comes first.
		select {
		case <-f.primary:
			select {
			case <-f.progressCh():
				return nil
			case <-f.done:
				return nil
			case <-rt.stop:
				return ErrClosed
			}
		default:
		}
		select {
		case <-f.primary:
			return nil
		case <-rt.stop:
			return ErrClosed
		}
	}
	f := newInflightFetch(spec)
	rt.inflight[key] = f
	rt.inflightMu.Unlock()
	release := func() {
		// Remove before closing: a woken joiner that still finds work must
		// be able to register its own exchange immediately. primary closes
		// (idempotently) before done so no joiner can observe done without
		// primary.
		rt.inflightMu.Lock()
		delete(rt.inflight, key)
		rt.inflightMu.Unlock()
		f.signalPrimary()
		close(f.done)
	}
	poke, bg, err := rt.fetchFrom(sess, pn, origin, spec, stale, f)
	if bg != nil {
		// A streamed reply unblocked the primary wants with chunks still
		// in flight: drain them in the background, releasing the registry
		// slot — and poking the prefetcher — only when the stream ends.
		// Teardown paths quiesce rt.bgDrain before touching the cache.
		f.signalPrimary()
		rt.bgDrain.Add(1)
		go func() {
			defer rt.bgDrain.Done()
			bg()
			release()
			if poke {
				rt.pfPoke(origin)
			}
		}()
		return err
	}
	release()
	if poke {
		// The exchange exposed a fresh swizzled frontier; give the
		// prefetcher a chance to run ahead of the application. The poke must
		// come only after the registry slot is released: under
		// Options.SyncPrefetch it completes speculative pages inline, and
		// the candidates can include this very page (its frontier grew
		// during the install) — an inline completion must register its own
		// exchange, not join this goroutine's still-held entry and deadlock
		// waiting on itself.
		rt.pfPoke(origin)
	}
	return err
}

// drainStreams waits out every background chunk drainer (the tail of a
// streamed fetch whose primary wants already unblocked the faulting
// access). Teardown paths call it right after pfDrain, before demoting
// or invalidating the cache, so a drain never installs into a page being
// torn down. The wait is bounded: a stalled stream abandons itself at
// its next per-chunk CallTimeout (when one is set) and every drain wakes
// on runtime close.
func (rt *Runtime) drainStreams() {
	rt.bgDrain.Wait()
}

// InflightFetches reports how many (page, origin) exchanges are currently
// registered as outstanding. Zero on an idle runtime; the chaos oracle
// uses it to prove failed speculative fetches never wedge the registry.
func (rt *Runtime) InflightFetches() int {
	rt.inflightMu.Lock()
	defer rt.inflightMu.Unlock()
	return len(rt.inflight)
}

// fetchFrom sends one FETCH for page pn's missing entries from origin
// and installs the reply. Its wants come from the table (offer): the
// page's own entries, then ride-alongs from other pages. spec marks
// prefetcher-issued fetches: the wire flag and the pf counters are the
// only differences — the origin serves both identically.
//
// Without stale, the ride-alongs are non-resident entries stranded on
// partially resident pages, so those pages are completed before they ever
// fault — one message instead of one per page. They are frozen (Primary
// marks the boundary): the server serves them but neither expands their
// pointer fields nor charges them against the closure budget, which stays
// fully available for the faulting page's own frontier. Charging or
// expanding them starves the productive closure and causes MORE faults,
// not fewer.
//
// stale marks completePage's stale pass, the warm fault (warmcache.go):
// the wants are stale entries, the FETCH is hashed, and its ride-alongs
// are stale entries of other pages. Every hashed want is frozen and free
// of budget at the origin, so the request carries no budget and no primary
// count. It is accounted as revalidation, and
// it never fails for want of an answer: whatever the exchange leaves stale
// — unanswered, or the whole offer on a lost, corrupted or refused
// exchange — degrades to a plain want for the caller's next pass. Only a
// tripped fence or a violated invariant surfaces.
//
// The origin picks the reply form: small closures arrive as one
// monolithic FetchReply; large closures arrive as a KindFetchChunk
// stream. Either way every frame installs as it is handed over
// (installFetchFrame). On a demand fetch, once every primary want is
// resident the faulting access is unblocked (completeFrom signals
// primary when this returns) and the remaining chunks drain through the
// returned bg closure, which completeFrom runs on a background
// goroutine; a drain error just leaves entries non-resident for a later
// demand fetch to retry.
//
// poke reports that the caller should poke the prefetcher at this origin
// once the in-flight registry slot is released (completeFrom); poking from
// in here would let an inline speculative completion rejoin — and deadlock
// on — the slot this exchange still holds. Speculative completions chain
// through pfRun instead.
//
// The whole exchange retries under the runtime's retry policy
// (Runtime.exchange): a stalled stream, a corrupted frame, or a torn
// chunk sequence abandons the attempt and re-issues the FETCH under a
// fresh attempt seq. Re-installing items an earlier attempt already
// delivered is idempotent.
func (rt *Runtime) fetchFrom(sess uint64, pn, origin uint32, spec, stale bool, f *inflightFetch) (poke bool, bg func(), err error) {
	p := wire.FetchPayload{Speculative: spec}
	var own int
	if p.Wants, p.Sums, own = rt.offer(pn, origin, stale); len(p.Wants) == 0 {
		return false, nil, nil
	}
	primary := p.Wants[:own]
	if !stale {
		p.Budget, p.Primary = uint32(rt.closure), uint32(own)
	}
	all := len(p.Wants)
	open, err := rt.exchange(wire.Message{
		Kind:    wire.KindFetch,
		Session: sess,
		To:      origin,
		Payload: p.Encode(),
	}, func() {
		switch {
		case stale:
			rt.stats.cohRevalidateMsgs.Add(1)
			rt.trace(Event{Kind: EvValidateSent, Target: origin, Page: pn, Count: all})
		case spec:
			rt.stats.fetchesSent.Add(1)
			rt.stats.pfIssued.Add(1)
			rt.trace(Event{Kind: EvPrefetchIssued, Page: pn, Target: origin, Count: all})
		default:
			rt.stats.fetchesSent.Add(1)
			rt.trace(Event{Kind: EvFetchSent, Target: origin, Count: all})
		}
	}, func(m wire.Message) (bool, error) {
		return rt.installFetchFrame(f, sess, origin, primary, stale, m)
	})
	if err != nil {
		if !stale || errors.Is(err, ErrOriginRestarted) || errors.Is(err, ErrInvariant) {
			return false, nil, err
		}
		rt.table.ClearStale(p.Wants)
		return false, nil, nil
	}
	offered := p.Wants // bg's copy: capturing p would move it to the heap
	if open == nil {
		if stale {
			rt.table.ClearStale(offered)
		}
		return !spec, nil, nil
	}
	bg = func() {
		open.drain(func(m wire.Message) (bool, error) {
			_, err := rt.installFetchFrame(f, sess, origin, primary, stale, m)
			// Wake parked joiners after every install: a fault whose
			// entries this chunk covered unblocks now.
			f.progress()
			return false, err
		})
		if stale {
			rt.table.ClearStale(offered)
		}
	}
	return !spec, bg, nil
}

// offer builds the wants of fetchFrom's FETCH for page pn from origin in
// one hold of the table, from the rows swizzle.Tx.Offer walks off the page
// records: the page's own first, own counting them, then the ride-alongs
// within the closure budget. A hashed FETCH (stale) also carries a sum per
// want: the row's memo when it has one (warmcache.go), otherwise the hash
// of the datum encoded from its demoted page into one scratch arena, which
// becomes the memo. A datum that cannot be encoded — it points at a datum
// freed since — loses its stale mark and is refetched.
//
// The walk holds installMu: installs are the only writers of a stale
// page, and a concurrent exchange (a prefetch whose ride-alongs overlap
// this offer) may be applying one. The scratch is reused under it; the
// offer is copied out, sized exactly, because the exchange outlives it.
func (rt *Runtime) offer(pn, origin uint32, stale bool) (wants []wire.LongPtr, sums []uint64, own int) {
	rt.installMu.Lock()
	defer rt.installMu.Unlock()
	sc := &rt.offerScratch
	sc.wants, sc.sums = sc.wants[:0], sc.sums[:0]
	var unencodable []wire.LongPtr
	tx := rt.table.Begin()
	tx.Offer(pn, origin, rt.closure, stale, func(row swizzle.Row, e swizzle.Entry, isOwn bool) {
		if stale {
			if !e.HasMemo {
				rv, err := rt.res.Resolve(e.LP.Type)
				if err == nil {
					sc.arena.Reset()
					err = encodeObjectInto(&sc.arena, rt.space, tx, rv, e.Addr)
				}
				if err != nil {
					unencodable = append(unencodable, e.LP)
					return
				}
				e.Memo = wire.Sum64(sc.arena.Bytes())
				tx.SetMemo(row, e.Memo)
			}
			sc.sums = append(sc.sums, e.Memo)
		}
		if isOwn {
			own++
		}
		sc.wants = append(sc.wants, e.LP)
	})
	tx.ClearStale(unencodable)
	tx.End()
	if stale {
		sums = slices.Clone(sc.sums)
	}
	return slices.Clone(sc.wants), sums, own
}

// offerScratch holds offer's wants, sums and encode arena between calls.
type offerScratch struct {
	wants []wire.LongPtr
	sums  []uint64
	arena xdr.Encoder
}

// decodeFetchFrame decodes a FETCH reply frame in either reply form into
// buf's storage (wire.DecodeItemsPayloadInto); the classic single frame
// reads as the one, final, chunk of its stream. A frame carrying the
// origin's error decodes to that error.
func decodeFetchFrame(m wire.Message, buf []wire.DataItem) (wire.FetchChunkPayload, error) {
	if m.Err != "" {
		return wire.FetchChunkPayload{}, errors.New(m.Err)
	}
	if m.Kind == wire.KindFetchChunk {
		return wire.DecodeFetchChunkPayloadInto(m.Payload, buf)
	}
	rp, err := wire.DecodeItemsPayloadInto(m.Payload, buf)
	return wire.FetchChunkPayload{Final: true, Items: rp.Items}, err
}

// replyItemsPool recycles the item vectors FETCH reply frames decode
// into: a cold fault decodes hundreds of items, and installs them before
// the next frame is decoded.
var replyItemsPool = sync.Pool{New: func() any { return new([]wire.DataItem) }}

// maxPooledReplyItems is the largest item vector replyItemsPool keeps.
const maxPooledReplyItems = 1 << 12

// installFetchFrame installs the items of one FETCH reply frame, and
// reports (detach) that the reply has more frames to come but the
// exchange's primary wants — the faulting page's own entries — are all
// resident: the faulting access need not wait for the rest. By the
// protocol's contract that is chunk 0, but the client verifies residency
// rather than trusting the origin's framing. Speculative completions have
// no one waiting and never detach. stale marks the reply to a hashed
// FETCH (fetchFrom).
func (rt *Runtime) installFetchFrame(f *inflightFetch, sess uint64, origin uint32, primary []wire.LongPtr, stale bool, m wire.Message) (detach bool, err error) {
	defer m.ReleaseFrame()
	buf := replyItemsPool.Get().(*[]wire.DataItem)
	cp, err := decodeFetchFrame(m, *buf)
	defer func() {
		// Drop the byte references before pooling: they alias the frame.
		clear(cp.Items)
		if cap(cp.Items) <= maxPooledReplyItems {
			*buf = cp.Items[:0]
			replyItemsPool.Put(buf)
		}
	}()
	if err != nil {
		return false, fmt.Errorf("fetch from space %d: %w", origin, err)
	}
	chunked := m.Kind == wire.KindFetchChunk
	if chunked {
		rt.trace(Event{Kind: EvChunkRecv, Target: origin, Page: cp.Chunk, Count: len(cp.Items)})
	}
	// Fetch replies bypass the delta-shipping state: a datum is fetched at
	// most once per session, so there is no baseline to diff against and
	// tracking it would desynchronize the edge.
	path := pathFetch
	if stale {
		path = pathRevalidate
	}
	if err := rt.installItems(origin, sess, cp.Items, path); err != nil {
		return false, fmt.Errorf("fetch from space %d: install: %w", origin, err)
	}
	if chunked {
		rt.trace(Event{Kind: EvChunkInstall, Target: origin, Page: cp.Chunk, Count: len(cp.Items)})
	}
	if f.spec {
		if !stale { // a revalidation's bodies are counted as such
			var n uint64
			for _, it := range cp.Items {
				n += uint64(len(it.Bytes))
			}
			rt.stats.pfBytes.Add(n)
		}
		return false, nil
	}
	if cp.Final {
		return false, nil
	}
	if f.missing == nil {
		f.missing = make(map[wire.LongPtr]bool, len(primary))
		for _, lp := range primary {
			f.missing[lp] = true
		}
	}
	for _, it := range cp.Items {
		delete(f.missing, it.LP)
	}
	return len(f.missing) == 0, nil
}

// chunkEmitter sends one served FETCH reply and owns the choice of its
// form. The serve hands it item batches as it produces them: emit sends a
// batch as one individually checksummed KindFetchChunk frame; finish
// sends what is left as the classic single reply frame when nothing was
// emitted, as the FINAL chunk otherwise. Either form's payload is encoded
// straight into a pooled frame buffer, which the receiver releases after
// installing the frame. A send failure latches: the remaining build is
// not worth finishing for an unreachable peer.
type chunkEmitter struct {
	rt   *Runtime
	req  wire.Message
	next uint32 // ordinal of the next chunk: how many went out
	err  error  // first send failure (latched)
}

// emit sends one chunk carrying the given items.
func (em *chunkEmitter) emit(items []wire.DataItem, final bool) error {
	if em.err != nil {
		return em.err
	}
	p := wire.FetchChunkPayload{
		XID:   em.req.Seq,
		Chunk: em.next,
		Final: final,
		Items: items,
	}
	fb := wire.NewChunkBuf()
	p.EncodeTo(fb.Enc())
	em.rt.trace(Event{Kind: EvChunkSent, Target: em.req.From, Page: em.next, Count: len(items)})
	if err := em.send(wire.KindFetchChunk, fb); err != nil {
		return err
	}
	em.next++
	// Yield between chunks: the point of streaming is that the receiver
	// decodes and installs while this serve is still encoding, and on a
	// saturated (or single-CPU) host the encode loop would otherwise
	// monopolize the processor until preemption — the receiver would see
	// the whole stream arrive at once, monolithic with extra framing.
	runtime.Gosched()
	return nil
}

// send seals and sends one reply frame whose payload fb holds.
func (em *chunkEmitter) send(kind wire.Kind, fb *wire.FrameBuf) error {
	out := wire.Message{
		Kind:    kind,
		Session: em.req.Session,
		Seq:     em.req.Seq,
		To:      em.req.From,
		Payload: fb.Enc().Bytes(),
		Frame:   fb,
		Inc:     em.rt.incarnation,
	}
	out.Seal()
	if err := em.rt.node.Send(out); err != nil {
		// Send consumes the frame reference only when it serializes or
		// delivers; an undeliverable frame is released here.
		out.ReleaseFrame()
		em.err = err
		return err
	}
	return nil
}

// finish ends the reply with the items no chunk has carried yet.
func (em *chunkEmitter) finish(items []wire.DataItem) {
	if em.next > 0 {
		_ = em.emit(items, true)
		return
	}
	fb := wire.NewChunkBuf()
	(&wire.ItemsPayload{Items: items}).EncodeTo(fb.Enc())
	_ = em.send(wire.KindFetchReply, fb)
}

// fail ends the reply with an error: an error chunk if part of the
// stream is already out, so the client abandons the exchange at once
// instead of waiting out its deadline; the classic error reply otherwise.
func (em *chunkEmitter) fail(errStr string) {
	if em.err != nil {
		return // the peer is unreachable; nothing to tell it
	}
	kind := wire.KindFetchChunk
	if em.next == 0 {
		kind = em.req.Kind.ReplyKind()
	}
	em.rt.reply(em.req, kind, nil, errStr)
}

// serveFetch answers a data request: it sends the wanted objects plus a
// transitive closure bounded by the requested budget (§3.3). A
// speculative request is served identically — the flag is accounting on
// the requester. Closure encoding reads the heap, so the serve holds the
// read side of serveMu against concurrently applied write-backs.
//
// A hashed request (a warm fault, warmcache.go) is answered want by want
// with a token or the full body and nothing more; it is counted as a
// revalidation, not as a served fetch.
//
// A closure whose encoded items exceed the streaming threshold goes out
// as a pipelined chunk sequence — each chunk is sent as soon as the
// traversal fills it, so the client decodes and installs while this
// serve is still encoding. Smaller closures use the classic single reply
// frame (chunkEmitter.finish).
func (rt *Runtime) serveFetch(m wire.Message) {
	em := chunkEmitter{rt: rt, req: m}
	p, err := wire.DecodeFetchPayload(m.Payload)
	if err != nil {
		em.fail(fmt.Sprintf("decode: %v", err))
		return
	}
	rt.serveMu.RLock()
	defer rt.serveMu.RUnlock()
	if len(p.Sums) > 0 {
		rt.stats.cohRevalidateMsgs.Add(1)
	} else {
		rt.stats.fetchesServed.Add(1)
		rt.trace(Event{Kind: EvFetchServed, Target: m.From, Count: len(p.Wants)})
	}
	// The working set (queue, seen set, item slice, encode arena) is pooled
	// across serves: every frame the reply goes out in is a copy, so
	// nothing aliases the arena once the serve returns.
	sc := serveScratchPool.Get().(*serveScratch)
	defer func() {
		sc.reset()
		serveScratchPool.Put(sc)
	}()
	items, err := rt.buildClosureItems(p.Wants, p.Sums, int(p.Primary), int(p.Budget), sc, &em)
	if err != nil {
		em.fail(err.Error())
		return
	}
	em.finish(items)
}

// closureJob is one queued traversal step of a closure build.
type closureJob struct {
	lp     wire.LongPtr
	want   bool
	frozen bool // serve, but do not expand children
}

// serveScratch is the pooled per-serve working set: everything
// buildClosureItems needs, reused across serveFetch calls so a hot origin
// stops allocating per fetch. It starts empty and grows on use.
type serveScratch struct {
	seen  addrSet
	queue []closureJob
	items []wire.DataItem
	arena xdr.Encoder
}

// maxPooledArena is the largest encode arena a pooled serveScratch keeps:
// an outsized closure is encoded once, not pinned in the pool.
const maxPooledArena = 1 << 20

func (sc *serveScratch) reset() {
	sc.queue = sc.queue[:0]
	// The items slice the arena; drop them before the arena is reused.
	clear(sc.items)
	sc.items = sc.items[:0]
	if cap(sc.arena.Bytes()) > maxPooledArena {
		sc.arena = xdr.Encoder{}
	}
	sc.arena.Reset()
}

var serveScratchPool = sync.Pool{New: func() any { return new(serveScratch) }}

// addrSet is the closure walk's seen set: an open-addressing hash set of
// local addresses, linear probing over a power-of-two table of uint32
// slots in which zero marks an empty slot (the null address is tracked
// apart). reset sizes the table for the expected count and clears only
// the slots it will use, so a pooled set keeps its storage and a small
// serve pays for a small clear.
type addrSet struct {
	slots []uint32
	n     int   // addresses held in slots
	shift uint8 // 32 - log2(len(slots)): the hash keeps the top bits
	zero  bool  // the null address is held
}

// reset empties the set and sizes it for about est addresses.
func (s *addrSet) reset(est int) {
	size := 64
	for size < 2*est {
		size <<= 1
	}
	if cap(s.slots) >= size {
		s.slots = s.slots[:size]
		clear(s.slots)
	} else {
		s.slots = make([]uint32, size)
	}
	s.n, s.zero = 0, false
	s.shift = uint8(32 - bits.TrailingZeros(uint(size)))
}

// slot is a's first probe position (Fibonacci hashing: addresses are
// aligned, so their low bits carry little).
func (s *addrSet) slot(a uint32) uint32 { return (a * 0x9e3779b1) >> s.shift }

// has reports whether a is in the set.
func (s *addrSet) has(a vmem.VAddr) bool {
	k := uint32(a)
	if k == 0 {
		return s.zero
	}
	mask := uint32(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			return false
		case k:
			return true
		}
	}
}

// add inserts a, which must not be in the set, doubling the table first
// when the insert would fill more than half of it.
func (s *addrSet) add(a vmem.VAddr) {
	k := uint32(a)
	if k == 0 {
		s.zero = true
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots = make([]uint32, 2*len(old))
		s.shift--
		for _, o := range old {
			if o != 0 {
				s.insert(o)
			}
		}
	}
	s.insert(k)
	s.n++
}

func (s *addrSet) insert(k uint32) {
	mask := uint32(len(s.slots) - 1)
	i := s.slot(k)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = k
}

// buildClosureItems encodes the wanted objects unconditionally, then keeps
// traversing the pointer graph (breadth-first by default, §3.3) until the
// byte budget for additional data is exhausted. Only locally owned data
// can be served; pointers to third spaces are passed through as long
// pointers for the requester to resolve on its own faults.
//
// primary is the count of leading wants that seed the traversal; wants
// beyond it (the batched ride-alongs) are served but their pointer fields
// are not expanded, so the closure budget is spent entirely on the faulting
// page's own frontier. primary <= 0 means every want is primary.
//
// sums, when non-empty, makes every want hashed: sums[i] is the
// requester's hash of its demoted copy of wants[i]. A hashed want is
// frozen and encoded as any want; when the encoding hashes to the offered
// sum it is answered with an ItemCurrent token instead, and the arena
// forgets the body.
//
// Every served object is marshaled straight out of the heap into one
// arena, and its item slices that arena; child expansion reads the heap
// directly, not the encoded form.
//
// sc, when non-nil, supplies the pooled working set, arena included
// (serveFetch): the items it returns are valid until sc is reset. Other
// callers pass nil and allocate fresh.
//
// em, when it streams, takes the closure out in chunks: once every want
// has been served (so chunk 0 always carries the faulting page's own
// entries and the batched ride-alongs; a hashed request has no closure to
// wait for) and the accumulated item bytes exceed the chunk limit, the
// accumulated items go out as one chunk and the traversal continues. The function returns the items no chunk has
// carried — all of them for a closure that never reached the limit —
// for the caller to finish the reply with. Under DFS (the ablation)
// wants drain last, so streaming effectively degrades to the monolithic
// form — the contract, not the chunk size, is what the client depends
// on.
func (rt *Runtime) buildClosureItems(wants []wire.LongPtr, sums []uint64, primary, budget int, sc *serveScratch, em *chunkEmitter) ([]wire.DataItem, error) {
	if primary <= 0 {
		primary = len(wants)
	}
	// est guesses the item count: every want plus however many
	// minimum-size objects the budget can admit. Sizing the working set
	// once up front keeps the serve path free of growth reallocations.
	est := len(wants) + min(budget, 1<<16)/16 + 1
	// seen is keyed by local address: only locally owned objects are ever
	// encoded (foreign pointers pass through).
	//
	// All bodies are encoded into one arena and each item slices it as soon
	// as it is encoded. That is sound even though the arena may still grow:
	// append reallocation copies, so an already-sliced backing array is
	// never written again.
	arenaHint := len(wants)*16 + min(budget, 1<<16)
	var (
		seen  *addrSet
		queue []closureJob
		items []wire.DataItem
		arena *xdr.Encoder
	)
	if sc != nil {
		seen, queue, items, arena = &sc.seen, sc.queue, sc.items, &sc.arena
		arena.Grow(arenaHint)
		// Hand any slice growth back to the scratch on every exit, so the
		// pooled working set keeps its high-water capacity.
		defer func() {
			sc.queue, sc.items = queue, items
		}()
	} else {
		seen = new(addrSet)
		queue = make([]closureJob, 0, est)
		items = make([]wire.DataItem, 0, est)
		arena = xdr.NewEncoder(arenaHint)
	}
	seen.reset(est)
	hashed := len(sums) > 0
	for i, lp := range wants {
		queue = append(queue, closureJob{lp: lp, want: true, frozen: i >= primary || hashed})
	}
	// Closure hints are resolved per type, not per item: the snapshot is
	// loaded once, and an item of the same type as the one before it
	// reuses that one's lookup.
	hints := rt.hints.Load()
	var (
		hintType types.ID
		follow   []bool
	)
	budgetLeft := budget
	// Streaming state: wantsLeft counts unserved want jobs (no flush may
	// split them off chunk 0; a hashed reply, all wants, splits anywhere),
	// accBytes the encoded size of the items accumulated since the last
	// flush, flushed the boundary.
	wantsLeft := len(wants)
	accBytes, flushed := 0, 0
	// head indexes the BFS frontier instead of re-slicing queue, so a
	// pooled queue keeps its full backing array across serves.
	head := 0
	for head < len(queue) {
		// at is j's queue index; a hashed request queues its wants and
		// nothing else, so there it is also the index of j's sum.
		var j closureJob
		at := head
		if rt.traversal == TraverseDFS {
			at = len(queue) - 1
			j, queue = queue[at], queue[:at]
		} else {
			j = queue[head]
			head++
		}
		if j.want {
			wantsLeft--
		}
		if j.lp.IsNull() {
			continue
		}
		if j.lp.Space != rt.id {
			if j.want {
				return nil, fmt.Errorf("core: fetch for datum %v not owned by space %d", j.lp, rt.id)
			}
			continue
		}
		if seen.has(j.lp.Addr) {
			continue
		}
		rv, err := rt.res.Resolve(j.lp.Type)
		if err != nil {
			return nil, err
		}
		if !j.want {
			if budgetLeft < rv.Canon {
				continue // budget exhausted for optional data; keep draining queue for cheaper finds
			}
			budgetLeft -= rv.Canon
		}
		seen.add(j.lp.Addr)
		start := arena.Len()
		if err := encodeObjectInto(arena, rt.space, rt.table, rv, j.lp.Addr); err != nil {
			return nil, fmt.Errorf("encode %v: %w", j.lp, err)
		}
		it := wire.DataItem{LP: j.lp, Bytes: arena.Bytes()[start:arena.Len():arena.Len()]}
		if hashed && wire.Sum64(it.Bytes) == sums[at] {
			it = wire.DataItem{LP: j.lp, Current: true}
			arena.Truncate(start)
		}
		items = append(items, it)
		if !j.frozen {
			// Enqueue the pointed-to data, honoring any programmer-supplied
			// closure shape hint for this type (§6: "use suggestions provided
			// by the programmer" to optimize the closure's shape).
			desc, layout := rv.Desc, rv.Layout
			if hints != nil && desc.ID != hintType {
				hintType, follow = desc.ID, (*hints)[desc.ID]
			}
			for i, f := range desc.Fields {
				if f.Kind != types.Ptr {
					continue
				}
				if follow != nil && !follow[i] {
					continue
				}
				count := f.Count
				if count <= 1 {
					count = 1
				}
				fl := layout.Fields[i]
				for e := 0; e < count; e++ {
					pv, err := rt.space.ReadPtrRaw(j.lp.Addr + vmem.VAddr(fl.Offset+e*fl.ElemSize))
					if err != nil {
						return nil, err
					}
					if pv == vmem.Null {
						continue
					}
					target, err := rt.table.Unswizzle(pv, f.Elem)
					if err != nil {
						return nil, err
					}
					queue = append(queue, closureJob{lp: target})
				}
			}
		}
		if em != nil && rt.streamChunk > 0 {
			accBytes += wire.EncodedLongPtrSize + 8 + (len(it.Bytes)+3)&^3
			// more is judged after this item's children were enqueued, so a
			// linear chain (each item feeding exactly one successor) streams
			// just like a bushy tree.
			more := head < len(queue)
			if rt.traversal == TraverseDFS {
				more = len(queue) > 0
			}
			// Flush only with traversal still pending: a closure that ends
			// exactly here stays monolithic (streaming with one chunk would
			// be the classic reply with extra framing).
			if (wantsLeft == 0 || hashed) && accBytes >= rt.streamChunk && more {
				// Cap the slice so the emitter's batch cannot alias later growth.
				if err := em.emit(items[flushed:len(items):len(items)], false); err != nil {
					return nil, err
				}
				flushed, accBytes = len(items), 0
			}
		}
	}
	return items[flushed:], nil
}

// eagerClosureFor builds the full transitive closure of every locally
// owned pointer argument: the fully eager baseline's call-time transfer.
func (rt *Runtime) eagerClosureFor(args []Value) ([]wire.DataItem, error) {
	var roots []wire.LongPtr
	for _, v := range args {
		if v.Kind != types.Ptr || v.Addr == vmem.Null {
			continue
		}
		lp, err := rt.table.Unswizzle(v.Addr, v.Elem)
		if err != nil {
			return nil, err
		}
		if lp.Space == rt.id {
			roots = append(roots, lp)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	return rt.buildClosureItems(roots, nil, 0, math.MaxInt32, nil, nil)
}

// fetchOne retrieves a single object's canonical bytes without caching:
// the fully lazy baseline's per-dereference callback.
func (rt *Runtime) fetchOne(lp wire.LongPtr) ([]byte, error) {
	if lp.Space == rt.id {
		// Locally owned data is read directly; no session needed.
		rv, err := rt.res.Resolve(lp.Type)
		if err != nil {
			return nil, err
		}
		return encodeObject(rt.space, rt.table, rv, lp.Addr)
	}
	rt.sessMu.Lock()
	sess := rt.sess
	rt.sessMu.Unlock()
	if sess == 0 {
		return nil, ErrNoSession
	}
	p := wire.FetchPayload{Wants: []wire.LongPtr{lp}, Budget: 0}
	// The origin may answer in either reply form; collect the one item
	// from whichever frame carries it.
	var body []byte
	n, found := 0, false
	_, err := rt.exchange(wire.Message{
		Kind:    wire.KindFetch,
		Session: sess,
		To:      lp.Space,
		Payload: p.Encode(),
	}, func() { rt.stats.fetchesSent.Add(1) }, func(m wire.Message) (bool, error) {
		defer m.ReleaseFrame()
		cp, err := decodeFetchFrame(m, nil)
		if err != nil {
			return false, fmt.Errorf("fetch %v: %w", lp, err)
		}
		for _, it := range cp.Items {
			if it.Current {
				return false, fmt.Errorf("fetch %v: %w", lp, errCurrentUnhashed)
			}
			if n++; it.LP == lp {
				body, found = it.Bytes, true
				if m.Frame != nil {
					body = slices.Clone(body) // outlives the chunk's pooled buffer
				}
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if n != 1 || !found {
		return nil, fmt.Errorf("fetch %v: unexpected reply shape (%d items)", lp, n)
	}
	return body, nil
}

// writeOne sends a single object's canonical bytes home: the lazy
// baseline's write path (read-modify-write-back).
func (rt *Runtime) writeOne(lp wire.LongPtr, data []byte) error {
	if lp.Space == rt.id {
		// Locally owned data is written directly; no session needed.
		rv, err := rt.res.Resolve(lp.Type)
		if err != nil {
			return err
		}
		return decodeObject(rt.space, rt.table, rv, lp.Addr, data)
	}
	rt.sessMu.Lock()
	sess := rt.sess
	rt.sessMu.Unlock()
	if sess == 0 {
		return ErrNoSession
	}
	// Writing through to the origin makes it a session participant even
	// if no call ever reaches it: the ship state this exchange records on
	// both ends must be torn down by the end-of-session invalidation.
	rt.mergeParts([]uint32{lp.Space})
	// Repeated read-modify-write of the same datum is the lazy baseline's
	// whole life; ship only what changed since the origin last saw it,
	// and nothing at all when the value is unchanged.
	items := rt.deltaShipItems(lp.Space, sess, []wire.DataItem{{LP: lp, Bytes: data}}, true)
	if len(items) == 0 {
		return nil
	}
	p := wire.ItemsPayload{Items: items}
	rt.stats.writeBackMsgs.Add(1)
	reply, err := rt.roundTrip(wire.Message{
		Kind:    wire.KindWriteBack,
		Session: sess,
		To:      lp.Space,
		Payload: p.Encode(),
	})
	if err != nil {
		return err
	}
	if reply.Err != "" {
		return fmt.Errorf("write back %v: %s", lp, reply.Err)
	}
	return nil
}
