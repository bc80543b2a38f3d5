package core

import (
	"errors"
	"fmt"
	"slices"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// This file implements the warm cross-session cache. The paper's protocol
// (§3.4) discards every cached page at session end, so each new session
// pays the full fault-and-fetch cost again even when the origin data never
// changed. Here the end-of-session invalidation *demotes* instead: table
// rows become stale (swizzle.Entry.Stale) and page bytes survive under
// ProtNone (vmem.DemoteCache) — nothing else is recorded, so a teardown
// costs one pass over the table whether or not a later session ever comes.
// The next session's first fault over a stale page sends one batched
// Validate message carrying (pointer, content hash) tuples for the faulting
// page plus the stale ride-alongs in its closure neighborhood; the origin
// answers each tuple with a zero-byte "still current" token or the full
// body — an unchanged working set costs one small round trip instead of N
// full fetches. The origin remembers nothing
// about what it served: it answers from its heap and the offered hash.
//
// Safety rests on two rules:
//
//   - The client's revalidation baseline IS the demoted page: the offered
//     hash is of the canonical encoding of the page bytes taken when the
//     Validate is built, never of a copy kept from a fetch- or
//     coherency-path install. A stale page sits under ProtNone and only a
//     revalidation install (which ends the entry's staleness) writes to it,
//     so page and baseline cannot disagree.
//   - The content hash is authoritative for token decisions: the origin
//     answers "still current" only when the hash of its *current* encoding
//     equals the offered hash. A dropped or corrupted reply can therefore
//     never set up a later token that promotes bytes differing from the
//     origin's — the failure mode of version-lockstep schemes.
//
// Any failure in the exchange degrades transparently: the affected entries
// lose their stale mark and are refetched in full by the ordinary fetch
// path. Correctness never depends on warm state.

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

// staleRef is the client's half of one offered tuple, held at the tuple's
// index from the offer until the reply has been applied.
type staleRef struct {
	addr     vmem.VAddr
	answered bool
}

// validateTuplesFor builds the offer for a set of stale long pointers by
// encoding each datum from its demoted page into one scratch arena: the
// tuple carries the hash of that encoding, which is then dropped. A row
// that vanished or was promoted meanwhile is skipped; a datum that cannot
// be encoded — it points at a datum freed since — loses its stale mark and
// is refetched.
//
// The encode holds installMu: revalidation installs are the only writers
// of a stale page, and a concurrent exchange (a prefetch whose ride-alongs
// overlap this batch) may be applying one.
func (rt *Runtime) validateTuplesFor(lps []wire.LongPtr) ([]wire.ValidateTuple, []staleRef) {
	tuples := make([]wire.ValidateTuple, 0, len(lps))
	refs := make([]staleRef, 0, len(lps))
	var arena *xdr.Encoder
	var unencodable []wire.LongPtr
	rt.installMu.Lock()
	tx := rt.table.Begin()
	for _, lp := range lps {
		row, ok := tx.LookupLP(lp)
		if !ok {
			continue
		}
		e := tx.Entry(row)
		if !e.Stale {
			continue
		}
		addr := e.Addr
		rv, err := rt.res.Resolve(lp.Type)
		if err != nil {
			unencodable = append(unencodable, lp)
			continue
		}
		if arena == nil {
			arena = xdr.NewEncoder(rv.Canon)
		}
		arena.Reset()
		if err := encodeObjectInto(arena, rt.space, tx, rt.res, rv.Desc, addr); err != nil {
			unencodable = append(unencodable, lp)
			continue
		}
		tuples = append(tuples, wire.ValidateTuple{LP: lp, Sum: wire.Sum64(arena.Bytes())})
		refs = append(refs, staleRef{addr: addr})
	}
	tx.ClearStale(unencodable)
	tx.End()
	rt.installMu.Unlock()
	return tuples, refs
}

// degradeStale strips the stale marks of the given tuples so the ordinary
// fetch path refetches them in full. It is the client's answer to any
// failed or unusable Validate exchange.
func (rt *Runtime) degradeStale(tuples []wire.ValidateTuple) {
	lps := make([]wire.LongPtr, len(tuples))
	for i, t := range tuples {
		lps[i] = t.LP
	}
	rt.table.ClearStale(lps)
}

// validateFrom revalidates the faulting page's stale entries (all owned
// by origin) with one batched Validate round trip, piggybacking tuples
// for stale ride-alongs within the eagerness budget. On any failure the
// affected entries degrade to plain wants and the method returns nil —
// the caller's fetch loop refetches them in full, so a lost or corrupted
// reply costs a refetch, never a stale read.
//
// A promoted warm page exposes its swizzled pointers just like a fresh
// install does, so a successful revalidation asks for a prefetcher poke
// (poke=true). As with fetchFrom, the poke itself is deferred to
// completeFrom: it may only run after the in-flight registry slot is
// released, or an inline speculative completion could deadlock joining
// this goroutine's own entry.
func (rt *Runtime) validateFrom(sess uint64, pn, origin uint32, lps []wire.LongPtr) (poke bool, err error) {
	extra, _ := rt.table.StaleWants(origin, pn, rt.closure)
	lps = append(lps, extra...)
	tuples, refs := rt.validateTuplesFor(lps)
	if len(tuples) == 0 {
		return false, nil
	}
	p := wire.ValidatePayload{Tuples: tuples}
	// Nothing is installed mid-stream — revalidation decisions need the
	// full answer set (unanswered tuples degrade) — so a streamed reply
	// buys pipelined encode and transmit on the origin, not early
	// unblocking. Item bytes may alias pooled chunk frames: the frames are
	// held until the apply has cloned every body.
	var items []wire.ValidateItem
	var held []*wire.FrameBuf
	release := func() {
		for _, fb := range held {
			fb.Release()
		}
		held, items = held[:0], nil
	}
	defer release()
	_, err = rt.exchange(wire.Message{
		Kind:    wire.KindValidate,
		Session: sess,
		To:      origin,
		Payload: p.Encode(),
	}, func() {
		release() // a retry starts the answer set afresh
		rt.stats.cohRevalidateMsgs.Add(1)
		rt.trace(Event{Kind: EvValidateSent, Target: origin, Page: pn, Count: len(tuples)})
	}, func(m wire.Message) (bool, error) {
		if m.Frame != nil {
			held = append(held, m.Frame)
		}
		var err error
		items, err = rt.recvValidateReply(m, items)
		return false, err
	})
	if err != nil {
		// A tripped fence is real state loss, not a lost reply: surface it.
		// Everything else keeps the seed's graceful degrade — the offered
		// tuples fall back to plain wants and the fetch loop refetches.
		if errors.Is(err, ErrOriginRestarted) {
			return false, err
		}
		rt.degradeStale(tuples)
		return false, nil
	}
	if err := rt.applyValidateReply(tuples, refs, items); err != nil {
		return false, err
	}
	return true, nil
}

// recvValidateReply appends the answers one VALIDATE reply frame carries
// — the classic monolithic ValidateReply, or one validate-flagged chunk
// of a stream, whose item vectors concatenate in order.
func (rt *Runtime) recvValidateReply(m wire.Message, items []wire.ValidateItem) ([]wire.ValidateItem, error) {
	if m.Err != "" {
		return nil, fmt.Errorf("core: validate rejected by space %d: %s", m.From, m.Err)
	}
	if m.Kind == wire.KindValidateReply {
		rp, err := wire.DecodeValidateReplyPayload(m.Payload)
		return rp.Items, err
	}
	cp, err := wire.DecodeFetchChunkPayload(m.Payload)
	if err != nil {
		return nil, err
	}
	rt.trace(Event{Kind: EvChunkRecv, Target: m.From, Page: cp.Chunk, Count: len(cp.VItems)})
	return append(items, cp.VItems...), nil
}

// applyValidateReply installs the origin's per-tuple answers: tokens
// promote the stale entry in place (the page already holds the current
// bytes), full bodies install as a fetch reply would. Every offered tuple
// ends the call either resident or degraded to a plain want, so the fetch
// loop always makes progress.
func (rt *Runtime) applyValidateReply(tuples []wire.ValidateTuple, refs []staleRef, items []wire.ValidateItem) error {
	// Revalidation installs into cache pages like installItems does, and
	// under the same serialization (see installItems).
	rt.installMu.Lock()
	defer rt.installMu.Unlock()
	tx := rt.table.Begin()
	err := rt.applyValidateBatch(tx, tuples, refs, items)
	tx.End()
	if err == nil && rt.checkInv {
		err = rt.CheckLocalInvariants()
	}
	return err
}

// applyValidateBatch is applyValidateReply's body, run with installMu and
// the table held.
func (rt *Runtime) applyValidateBatch(tx swizzle.Tx, tuples []wire.ValidateTuple, refs []staleRef, items []wire.ValidateItem) error {
	var pages []uint32 // pages holding an answered entry
	var degrade []wire.LongPtr
	next := 0 // the origin answers in offer order: each search starts where the last ended
	for _, it := range items {
		k := -1
		for n := range tuples {
			if j := (next + n) % len(tuples); tuples[j].LP == it.LP && !refs[j].answered {
				k = j
				break
			}
		}
		if k < 0 {
			continue // unsolicited or repeated; ignore
		}
		next = k + 1
		refs[k].answered = true
		addr := refs[k].addr
		row, ok := tx.LookupAddr(addr)
		if !ok {
			continue // freed meanwhile
		}
		e := tx.Entry(row)
		if !e.Stale || e.LP != it.LP {
			continue // promoted or overwritten by another path meanwhile
		}
		switch it.Form {
		case wire.ValidateCurrent:
			// The offered hash matched the origin's current encoding: the
			// page bytes under ProtNone are already exact. No decode.
			tx.MarkResident(row)
			rt.stats.cohRevalidateHits.Add(1)
			rt.trace(Event{Kind: EvValidateHit, LP: it.LP})
		case wire.ValidateFull:
			// Reply bytes alias the frame buffer; the decode below may
			// swizzle and recurse, so take a stable copy.
			body := slices.Clone(it.Bytes)
			rv, err := rt.res.Resolve(it.LP.Type)
			if err != nil {
				return err
			}
			if err := decodeObject(rt.space, tx, rt.res, rv.Desc, addr, body); err != nil {
				return fmt.Errorf("revalidate install %v: %w", it.LP, err)
			}
			tx.MarkResident(row)
			// Accounted by the revalidation counters alone, not by
			// ItemsInstalled/BytesInstalled: those track the fetch path, and
			// summing both families would double count the same datum.
			rt.stats.cohRevalidateMisses.Add(1)
			rt.stats.cohRevalidateBytes.Add(uint64(len(it.Bytes)))
			rt.trace(Event{Kind: EvValidateMiss, LP: it.LP, Count: len(it.Bytes)})
		}
		first := rt.space.PageOf(addr)
		last := rt.space.PageOf(addr + vmem.VAddr(e.Size-1))
		for pn := first; pn <= last; pn++ {
			if len(pages) == 0 || pages[len(pages)-1] != pn {
				pages = append(pages, pn)
			}
		}
	}
	// Tuples the origin failed to answer degrade — otherwise the fetch
	// loop would re-offer them forever.
	for k := range refs {
		if !refs[k].answered {
			degrade = append(degrade, tuples[k].LP)
		}
	}
	tx.ClearStale(degrade)
	slices.Sort(pages)
	for _, pn := range slices.Compact(pages) {
		prot, err := rt.space.ProtOf(pn)
		if err != nil {
			return err
		}
		if prot != vmem.ProtNone {
			continue
		}
		if !tx.AllResident(pn) {
			continue
		}
		if err := rt.space.SetProt(pn, vmem.ProtRead); err != nil {
			return err
		}
		tx.Seal(pn)
	}
	return nil
}

// serveValidate answers a batched revalidation request: for each offered
// (pointer, hash) tuple it re-encodes the datum's current value and replies
// with a token when the hashes match, the full body otherwise. Nothing
// about the peer is remembered.
func (rt *Runtime) serveValidate(m wire.Message) {
	// A reply heavy with full bodies streams as validate chunks, exactly
	// like a large fetch closure; the common all-token reply stays well
	// under the threshold and goes out monolithic (chunkEmitter.finish).
	em := chunkEmitter{rt: rt, req: m, validate: true}
	p, err := wire.DecodeValidatePayload(m.Payload)
	if err != nil {
		em.fail(fmt.Sprintf("decode: %v", err))
		return
	}
	// Re-encoding reads the heap; hold the read side of the serve lock
	// against concurrently applied write-backs.
	rt.serveMu.RLock()
	defer rt.serveMu.RUnlock()
	accBytes := 0
	out := wire.ValidateReplyPayload{Items: make([]wire.ValidateItem, 0, len(p.Tuples))}
	// Every tuple's current value encodes into one arena, allocated on the
	// first one; a miss's body slices it.
	var arena *xdr.Encoder
	for ti, t := range p.Tuples {
		if t.LP.Space != rt.id {
			em.fail(fmt.Sprintf("core: validate for datum %v not owned by space %d", t.LP, rt.id))
			return
		}
		rv, err := rt.res.Resolve(t.LP.Type)
		if err != nil {
			em.fail(err.Error())
			return
		}
		if arena == nil {
			arena = xdr.NewEncoder((len(p.Tuples) - ti) * rv.Canon)
		}
		start := arena.Len()
		if err := encodeObjectInto(arena, rt.space, rt.table, rt.res, rv.Desc, t.LP.Addr); err != nil {
			em.fail(fmt.Sprintf("encode %v: %v", t.LP, err))
			return
		}
		// Sliced at once: should the arena grow later, append copies,
		// and the array this slice points into is never written again.
		cur := arena.Bytes()[start:]
		it := wire.ValidateItem{LP: t.LP, Form: wire.ValidateCurrent}
		if wire.Sum64(cur) != t.Sum {
			it.Form, it.Bytes = wire.ValidateFull, cur
		}
		out.Items = append(out.Items, it)
		if rt.streamChunk > 0 {
			accBytes += wire.EncodedLongPtrSize + 8 + (len(it.Bytes)+3)&^3
			// As in buildClosureItems, only flush with tuples still pending
			// so a reply that ends exactly here stays monolithic. Emitted
			// batches are fully encoded into the chunk frame, so the slice
			// is reusable immediately.
			if accBytes >= rt.streamChunk && ti+1 < len(p.Tuples) {
				if err := em.emit(nil, out.Items, false); err != nil {
					return
				}
				out.Items = out.Items[:0]
				accBytes = 0
			}
		}
	}
	rt.stats.cohRevalidateMsgs.Add(1)
	em.finish(nil, out.Items)
}
