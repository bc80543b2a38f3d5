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
	// Frames background receivers parked install first, here on the
	// thread of control: they may release this very page with no round
	// trip.
	rt.InstallParked()
	prot, err := rt.space.ProtOf(f.Page)
	if err != nil {
		return err
	}
	rt.trace(Event{Kind: EvFault, Page: f.Page})
	switch {
	case prot == vmem.ProtReadWrite, prot == vmem.ProtRead && f.Kind != vmem.FaultWrite:
		// Someone else resolved the fault between the access check and
		// this handler (DESIGN §7 bug 15); the access re-checks and copies.
		return nil
	case prot == vmem.ProtRead:
		// Dirty detection: first write to a clean cached page.
		if err := rt.space.MarkDirty(f.Page, true); err != nil {
			return err
		}
		return rt.space.SetProt(f.Page, vmem.ProtReadWrite)
	}
	// ProtNone: the first access to a protected page area. Fetch every
	// datum allocated to the page — once protection is released, a first
	// access to the others could no longer be detected.
	sess := rt.Session()
	if sess == 0 {
		return fmt.Errorf("core: page fault on cached data outside a session (page %d)", f.Page)
	}
	if err := rt.completePage(sess, f.Page); err != nil {
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

// inflightFetch is one registry entry: a (page, origin) FETCH exchange
// from its registration until a thread of control retires it, at once
// when the exchange ran on that thread, or on installing the end record
// a background receiver parked (InstallParked). A fault on the page
// meanwhile joins it (completeFrom) instead of re-requesting.
type inflightFetch struct {
	fetchKey
	sess  uint64
	spec  bool           // prefetcher-issued
	stale bool           // a hashed FETCH (warmcache.go)
	n     int32          // the FETCH's want count
	wants []wire.LongPtr // a hashed FETCH's wants, for ClearStale
}

// parkedFrame is one reply frame a background receiver parked for the
// thread of control, or (end) the record that the exchange is over.
type parkedFrame struct {
	f   *inflightFetch
	m   wire.Message
	end bool
	err error // the exchange's outcome, on the end record
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
func (rt *Runtime) completePage(sess uint64, pn uint32) error {
	for pass := 0; ; pass++ {
		var plainBuf, staleBuf [4]uint32
		origins, staleFrom, entries := rt.table.PageOrigins(pn, plainBuf[:0], staleBuf[:0])
		if pass == 0 && entries == 0 {
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
			err = rt.completeFrom(sess, pn, origins[0], stale)
		default:
			err = fanOut(origins, func(origin uint32) error {
				return rt.completeFrom(sess, pn, origin, stale)
			})
		}
		if err != nil {
			return err
		}
	}
}

// completeFrom runs one (page, origin) exchange through the in-flight
// registry. If the pair is already outstanding (typically a speculative
// prefetch the application has now caught up with) the caller joins it,
// installing its frames as they park; otherwise it registers the exchange
// and performs it. Either way the
// caller's completion loop re-scans the page afterwards, so a joiner
// whose exchange failed simply issues its own: a demand fault never
// inherits a speculative failure.
func (rt *Runtime) completeFrom(sess uint64, pn, origin uint32, stale bool) error {
	key := fetchKey{pn: pn, origin: origin}
	rt.inflightMu.Lock()
	if f := rt.inflight[key]; f != nil {
		rt.stats.pfCoalesced.Add(1)
		if f.spec {
			rt.trace(Event{Kind: EvPrefetchHit, Page: pn, Target: origin})
		}
		// Join: wait until a frame parks or the exchange retires, install
		// what is parked, and let the caller's loop re-scan the page.
		for len(rt.parked) == 0 && rt.inflight[key] == f {
			select {
			case <-rt.stop:
				rt.inflightMu.Unlock()
				return ErrClosed
			default:
			}
			rt.joined.Wait()
		}
		rt.inflightMu.Unlock()
		rt.InstallParked()
		return nil
	}
	f := &inflightFetch{fetchKey: key, sess: sess, stale: stale}
	rt.inflight[key] = f
	rt.inflightMu.Unlock()
	poke, detached, err := rt.fetchFrom(f, false)
	if detached {
		// The thread that installs the stream's end record retires it.
		return nil
	}
	rt.retire(f)
	if poke {
		// The exchange exposed a fresh swizzled frontier; give the
		// prefetcher a chance to run ahead of the application. The poke
		// comes only after the registry slot is released: under
		// Options.SyncPrefetch it completes speculative pages inline, and
		// the candidates can include this very page.
		rt.pfPoke(origin)
	}
	return err
}

// retire removes f from the registry, if teardown has not already, and
// wakes the joiners: a joiner that still finds work registers its own
// exchange.
func (rt *Runtime) retire(f *inflightFetch) {
	rt.inflightMu.Lock()
	if rt.inflight[f.fetchKey] == f {
		delete(rt.inflight, f.fetchKey)
	}
	rt.joined.Broadcast()
	rt.inflightMu.Unlock()
}

// receive starts f's background receiver. run consumes the exchange's
// frames through the frame function it is given, which parks each one
// for the thread of control; the receiver then parks the exchange's end
// record. It never installs, swizzles or changes a page's protection.
func (rt *Runtime) receive(f *inflightFetch, run func(park frameFunc) error) {
	rt.receivers.Add(1)
	go func() {
		defer rt.receivers.Done()
		err := run(func(m wire.Message) (bool, error) {
			rt.park(parkedFrame{f: f, m: m})
			return false, nil
		})
		rt.park(parkedFrame{f: f, end: true, err: err})
	}()
}

// park queues one record for the thread of control and wakes the
// joiners; a frame of an exchange teardown dropped, which is no longer
// registered, is released instead.
func (rt *Runtime) park(r parkedFrame) {
	rt.inflightMu.Lock()
	defer rt.inflightMu.Unlock()
	if rt.inflight[r.f.fetchKey] != r.f {
		r.m.ReleaseFrame()
		return
	}
	rt.parked = append(rt.parked, r)
	rt.joined.Broadcast()
}

// InstallParked installs every reply frame background receivers have
// parked (the tail of a streamed reply, speculative fetches) in arrival
// order on the calling goroutine, which must be a thread of control of
// the session, and retires each exchange whose end record it reaches. The
// runtime calls it at every fault and control transfer; a caller that
// wants the data resident before its next access, without a fault, calls
// it too. A frame that fails to install leaves its entries non-resident
// for a demand fetch, as a failed exchange does. With nothing parked it
// allocates nothing.
func (rt *Runtime) InstallParked() {
	rt.inflightMu.Lock()
	q := rt.parked
	rt.parked = nil
	rt.inflightMu.Unlock()
	var pokes []uint32
	for _, r := range q {
		f := r.f
		if !r.end {
			_, _ = rt.installFetchFrame(f, r.m)
			continue
		}
		rt.retire(f)
		if f.stale {
			rt.table.ClearStale(f.wants)
		}
		if f.spec {
			rt.pfSettle(f.origin, f.pn, r.err == nil)
		}
		if r.err == nil {
			pokes = append(pokes, f.origin)
		}
	}
	// Chain after the batch: a poke under SyncPrefetch completes pages
	// inline, and those may install what is parked meanwhile.
	for _, origin := range pokes {
		rt.pfPoke(origin)
	}
}

// dropParked is teardown's half of the fetch pipeline: speculation is
// disarmed, every exchange dropped and every parked frame released, so
// nothing installs into the cache being torn down and nothing is waited
// for. Receivers still running release their late frames (park).
func (rt *Runtime) dropParked() {
	rt.pfBegin(0)
	rt.inflightMu.Lock()
	defer rt.inflightMu.Unlock()
	clear(rt.inflight)
	for _, r := range rt.parked {
		r.m.ReleaseFrame()
	}
	rt.parked = nil
	rt.joined.Broadcast()
}

// InflightFetches reports how many (page, origin) exchanges are currently
// registered: in flight, or with frames parked. Zero on an idle runtime;
// the chaos oracle uses it to prove failed speculative fetches never
// wedge the registry.
func (rt *Runtime) InflightFetches() int {
	rt.inflightMu.Lock()
	defer rt.inflightMu.Unlock()
	return len(rt.inflight)
}

// ParkedFrames reports how many records background receivers have
// parked that no thread of control has installed yet. Zero on a
// quiescent runtime and after Close.
func (rt *Runtime) ParkedFrames() int {
	rt.inflightMu.Lock()
	defer rt.inflightMu.Unlock()
	return len(rt.parked)
}

// fetchFrom sends f's FETCH for its page's missing entries from its
// origin and installs the reply. Its wants come from the table (offer):
// the page's own entries only, and the origin's closure from them fills
// the budget. f.spec marks prefetcher-issued fetches: the wire flag and
// the pf counters are the only differences — the origin serves both
// identically.
//
// f.stale marks completePage's stale pass, the warm fault (warmcache.go):
// the wants are stale entries, the FETCH is hashed, and its ride-alongs
// are stale entries of other pages. Every hashed want is served without
// expansion and free of budget at the origin, so the request carries no
// budget. It is accounted as revalidation, and
// it never fails for want of an answer: whatever the exchange leaves stale
// — unanswered, or the whole offer on a lost, corrupted or refused
// exchange — degrades to a plain want for the caller's next pass. Only a
// tripped fence or a violated invariant surfaces.
//
// The origin picks the reply form: small closures arrive as one
// monolithic FetchReply; large closures arrive as a KindFetchChunk
// stream. Each frame installs on this thread as it is handed over
// (installFetchFrame). On a demand fetch, once the faulting page is
// released the faulting access is unblocked (detached) and a background
// receiver parks the remaining chunks; the thread of control installs
// them at its next fault or control transfer.
//
// background runs the whole exchange on a background receiver instead
// (a speculative exchange, pfLaunch), which parks every frame; detached
// is then true at once.
//
// poke reports a completed exchange: the caller should poke the
// prefetcher at this origin once the in-flight registry slot is released;
// poking from in here would let an inline speculative exchange rejoin —
// and deadlock on — the slot this exchange still holds.
//
// The whole exchange retries under the runtime's retry policy
// (Runtime.exchange): a stalled stream, a corrupted frame, or a torn
// chunk sequence abandons the attempt and re-issues the FETCH under a
// fresh attempt seq. Re-installing items an earlier attempt already
// delivered is idempotent.
func (rt *Runtime) fetchFrom(f *inflightFetch, background bool) (poke, detached bool, err error) {
	payload := rt.offer(f)
	if f.n == 0 {
		return false, false, nil
	}
	req := wire.Message{Kind: wire.KindFetch, Session: f.sess, To: f.origin, Payload: payload}
	if background {
		rt.receive(f, func(park frameFunc) error {
			_, err := rt.exchange(req, func() { rt.fetchSent(f) }, park)
			return err
		})
		return false, true, nil
	}
	open, err := rt.exchange(req, func() { rt.fetchSent(f) }, func(m wire.Message) (bool, error) {
		return rt.installFetchFrame(f, m)
	})
	if err != nil {
		if !f.stale || errors.Is(err, ErrOriginRestarted) || errors.Is(err, ErrInvariant) {
			return false, false, err
		}
		rt.table.ClearStale(f.wants)
		return false, false, nil
	}
	if open != nil {
		rt.receive(f, func(park frameFunc) error {
			_, _, err := open.frames(park)
			open.release()
			return err
		})
		return false, true, nil
	}
	if f.stale {
		rt.table.ClearStale(f.wants)
	}
	return true, false, nil
}

// fetchSent books one attempt of f's FETCH going out.
func (rt *Runtime) fetchSent(f *inflightFetch) {
	e := Event{Kind: EvFetchSent, Target: f.origin, Count: int(f.n)}
	switch {
	case f.stale:
		rt.stats.cohRevalidateMsgs.Add(1)
		e.Kind, e.Page = EvValidateSent, f.pn
	case f.spec:
		rt.stats.pfIssued.Add(1)
		e.Kind, e.Page = EvPrefetchIssued, f.pn
	}
	if !f.stale {
		rt.stats.fetchesSent.Add(1)
	}
	rt.trace(e)
}

// offer builds and encodes the payload of f's FETCH in one hold of the
// table, from the rows swizzle.Tx.Offer walks off the page records, and
// records its want count in f. A hashed FETCH (f.stale) also carries a
// sum per want: the row's memo when it has one (warmcache.go), otherwise
// the hash of the datum encoded from its demoted page into one scratch
// arena, which becomes the memo. A datum that cannot be encoded — it
// points at a datum freed since — loses its stale mark and is refetched.
// A hashed FETCH's wants are also copied into f, for ClearStale.
//
// The walk holds installMu: installs are the only writers of a stale
// page, and another origin's exchange of a multi-origin fault, or another
// Options.Concurrent thread, may be applying one. The scratch is reused
// under it; the payload is encoded from it before the hold ends, because
// the exchange outlives it.
func (rt *Runtime) offer(f *inflightFetch) []byte {
	rt.installMu.Lock()
	defer rt.installMu.Unlock()
	sc := &rt.offerScratch
	sc.wants, sc.sums = sc.wants[:0], sc.sums[:0]
	var unencodable []wire.LongPtr
	tx := rt.table.Begin()
	tx.Offer(f.pn, f.origin, rt.closure, f.stale, func(row swizzle.Row, e swizzle.Entry) {
		if f.stale {
			var sum uint64
			if e.HasMemo {
				sum = tx.Memo(row)
			} else {
				rv, err := rt.res.Resolve(e.LP.Type)
				if err == nil {
					sc.arena.Reset()
					err = encodeObjectInto(&sc.arena, rt.space, tx, rv, e.Addr)
				}
				if err != nil {
					unencodable = append(unencodable, e.LP)
					return
				}
				sum = wire.Sum64(sc.arena.Bytes())
				tx.SetMemo(row, sum)
			}
			sc.sums = append(sc.sums, sum)
		}
		sc.wants = append(sc.wants, e.LP)
	})
	tx.ClearStale(unencodable)
	tx.End()
	if f.n = int32(len(sc.wants)); f.n == 0 {
		return nil
	}
	p := wire.FetchPayload{Wants: sc.wants, Sums: sc.sums, Speculative: f.spec}
	if f.stale {
		f.wants = slices.Clone(sc.wants)
	} else {
		p.Budget = uint32(rt.closure)
	}
	return p.Encode()
}

// offerScratch holds offer's wants, sums and encode arena between calls.
type offerScratch struct {
	wants []wire.LongPtr
	sums  []uint64
	arena xdr.Encoder
}

// readFetchFrame reads a FETCH reply frame in either reply form: its
// header and a reader on its items, which stay in the frame; the classic
// single frame reads as the one, final, chunk of its stream. A frame
// carrying the origin's error reads as that error.
func readFetchFrame(m wire.Message) (wire.FetchChunkPayload, wire.ItemReader, error) {
	if m.Err != "" {
		return wire.FetchChunkPayload{}, wire.ItemReader{}, errors.New(m.Err)
	}
	if m.Kind == wire.KindFetchChunk {
		return wire.ReadFetchChunk(m.Payload)
	}
	items, err := wire.ReadItemsPayload(m.Payload)
	return wire.FetchChunkPayload{Final: true}, items, err
}

// installFetchFrame installs the items of one FETCH reply frame of f's
// exchange, and reports (detach) that the reply has more frames to come
// but the faulting page is released, every entry on it resident: the
// faulting access need not wait for the rest. By the protocol's contract
// that is chunk 0, but the client checks the page rather than trusting
// the origin's framing. Speculative exchanges have no one waiting and
// never detach.
func (rt *Runtime) installFetchFrame(f *inflightFetch, m wire.Message) (detach bool, err error) {
	defer m.ReleaseFrame()
	cp, items, err := readFetchFrame(m)
	if err != nil {
		return false, fmt.Errorf("fetch from space %d: %w", f.origin, err)
	}
	origin, chunked := f.origin, m.Kind == wire.KindFetchChunk
	if chunked {
		rt.trace(Event{Kind: EvChunkRecv, Target: origin, Page: cp.Chunk, Count: items.Len()})
	}
	// Fetch replies bypass the delta-shipping state: a datum is fetched at
	// most once per session, so there is no baseline to diff against and
	// tracking it would desynchronize the edge.
	path := pathFetch
	if f.stale {
		path = pathRevalidate
	}
	if err := rt.installItems(origin, f.sess, items, path); err != nil {
		return false, fmt.Errorf("fetch from space %d: install: %w", origin, err)
	}
	if chunked {
		rt.trace(Event{Kind: EvChunkInstall, Target: origin, Page: cp.Chunk, Count: items.Len()})
	}
	if f.spec {
		if !f.stale { // a revalidation's bodies are counted as such
			var n uint64
			for it, err := items.Next(); err == nil; it, err = items.Next() {
				n += uint64(len(it.Bytes))
			}
			rt.stats.pfBytes.Add(n)
		}
		return false, nil
	}
	if cp.Final {
		return false, nil
	}
	prot, err := rt.space.ProtOf(f.pn)
	return prot != vmem.ProtNone, err
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
	// The working set (decoded wants and sums, queue, seen set, item
	// slice, encode arena) is pooled across serves: every frame the reply
	// goes out in is a copy, so nothing aliases the arena once the serve
	// returns.
	sc := serveScratchPool.Get().(*serveScratch)
	defer func() {
		sc.reset()
		serveScratchPool.Put(sc)
	}()
	p, err := wire.DecodeFetchPayloadInto(m.Payload, sc.wants, sc.sums)
	sc.wants = p.Wants
	if p.Sums != nil {
		sc.sums = p.Sums
	}
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
	items, err := rt.buildClosureItems(p.Wants, p.Sums, int(p.Budget), sc, &em)
	if err != nil {
		em.fail(err.Error())
		return
	}
	em.finish(items)
}

// closureJob is one queued traversal step of a closure build.
type closureJob struct {
	lp   wire.LongPtr
	want bool
}

// serveScratch is the pooled per-serve working set: everything
// buildClosureItems needs, reused across serveFetch calls so a hot origin
// stops allocating per fetch. It starts empty and grows on use.
type serveScratch struct {
	wants []wire.LongPtr
	sums  []uint64
	seen  addrSet
	queue []closureJob
	items []wire.DataItem
	arena xdr.Encoder
}

// maxPooledArena is the largest encode arena a pooled serveScratch keeps:
// an outsized closure is encoded once, not pinned in the pool.
// maxPooledWants likewise bounds the decoded want and sum vectors.
const (
	maxPooledArena = 1 << 20
	maxPooledWants = 1 << 14
)

func (sc *serveScratch) reset() {
	if cap(sc.wants) > maxPooledWants {
		sc.wants = nil
	}
	if cap(sc.sums) > maxPooledWants {
		sc.sums = nil
	}
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
// sums, when non-empty, makes every want hashed: sums[i] is the
// requester's hash of its demoted copy of wants[i]. A hashed want is
// encoded as any want but not expanded; when the encoding hashes to the
// offered sum it is answered with an ItemCurrent token instead, and the
// arena forgets the body.
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
// entries; a hashed request has no closure to wait for) and the
// accumulated item bytes exceed the chunk limit, the accumulated items go
// out as one chunk and the traversal continues. The function returns the
// items no chunk has carried — all of them for a closure that never
// reached the limit — for the caller to finish the reply with. Under DFS
// (the ablation) wants drain last, so streaming effectively degrades to
// the monolithic form — the contract, not the chunk size, is what the
// client depends on.
func (rt *Runtime) buildClosureItems(wants []wire.LongPtr, sums []uint64, budget int, sc *serveScratch, em *chunkEmitter) ([]wire.DataItem, error) {
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
	for _, lp := range wants {
		queue = append(queue, closureJob{lp: lp, want: true})
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
		if !hashed {
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
	return rt.buildClosureItems(roots, nil, math.MaxInt32, nil, nil)
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
		_, items, err := readFetchFrame(m)
		if err != nil {
			return false, fmt.Errorf("fetch %v: %w", lp, err)
		}
		for it, err := items.Next(); err == nil; it, err = items.Next() {
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
	e := xdr.NewEncoder(4 + wire.ItemSize(len(data)))
	w := wire.BeginItems(e)
	s := rt.shipTo(&w, lp.Space, sess, true)
	s.put(&w, lp, false, data)
	s.close(&w)
	if w.Len() == 0 {
		return nil
	}
	w.End()
	rt.stats.writeBackMsgs.Add(1)
	reply, err := rt.roundTrip(wire.Message{
		Kind:    wire.KindWriteBack,
		Session: sess,
		To:      lp.Space,
		Payload: e.Bytes(),
	})
	if err != nil {
		return err
	}
	if reply.Err != "" {
		return fmt.Errorf("write back %v: %s", lp, reply.Err)
	}
	return nil
}
