package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// sessionCounter disambiguates sessions started by the same runtime.
var sessionCounter atomic.Uint64

// Ctx carries the session context into a Handler, allowing nested RPCs
// and callbacks (a callee remotely calling its caller, §3.1).
type Ctx struct {
	rt   *Runtime
	from uint32
}

// Runtime returns the runtime executing the handler.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Caller returns the address-space ID of the calling space, the target
// for callbacks.
func (c *Ctx) Caller() uint32 { return c.from }

// Call issues a nested RPC (or a callback when target == Caller()).
func (c *Ctx) Call(target uint32, proc string, args []Value) ([]Value, error) {
	return c.rt.Call(target, proc, args)
}

// BeginSession starts an RPC session with this runtime's thread as the
// ground thread (§3.1). Remote pointers received during the session stay
// valid until EndSession.
func (rt *Runtime) BeginSession() error {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	if rt.sess != 0 {
		return fmt.Errorf("%w (session %#x)", ErrSessionBusy, rt.sess)
	}
	rt.sess = uint64(rt.id)<<32 | (sessionCounter.Add(1) & 0xffffffff)
	rt.ground = true
	clear(rt.parts)
	rt.pfBegin(rt.sess)
	rt.trace(Event{Kind: EvSessionBegin})
	return nil
}

// Session returns the current session identifier (0 when idle).
func (rt *Runtime) Session() uint64 {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	return rt.sess
}

// EndSession performs the ground runtime's two end-of-session tasks
// (§3.4): write every modified page back to its original address space,
// and multicast an invalidation to every participating space. It then
// invalidates the local cache. Write-backs to distinct origins are
// independent of each other, as are the invalidations, so each phase
// fans out to all its targets concurrently and waits for the acks; the
// phases themselves stay ordered (no space may discard its cache before
// every modification has reached home).
func (rt *Runtime) EndSession() error {
	rt.sessMu.Lock()
	if rt.sess == 0 {
		rt.sessMu.Unlock()
		return ErrNoSession
	}
	if !rt.ground {
		rt.sessMu.Unlock()
		return errors.New("core: EndSession on a non-ground runtime")
	}
	sess := rt.sess
	rt.sessMu.Unlock()

	// Drop speculation and streamed-fetch tails first: what they parked
	// is clean fetched data, and the cache it was meant for is about to be
	// demoted or discarded.
	rt.dropParked()

	// Any allocations still batched must reach their origins first, so
	// that dirty data mentions only real addresses. (This may enlarge the
	// participant set — an origin reached only by its alloc batch still
	// needs the invalidation — so the set is snapshotted afterwards.)
	if err := rt.flushAllocBatches(sess); err != nil {
		return fmt.Errorf("end session: %w", err)
	}

	// 1. Examine the modified data set and write each modified page back
	// to the original address space.
	origins, sends, err := rt.writeHome(sess, true)
	if err == nil {
		err = rt.sendWriteBacks(sends)
	}
	if err != nil {
		return fmt.Errorf("end session: %w", err)
	}
	// Write-back targets are participants too: the exchange above
	// recorded ship state on their side of the edge.
	rt.mergeParts(origins)

	rt.sessMu.Lock()
	parts := make([]uint32, 0, len(rt.parts))
	for p := range rt.parts {
		if p != rt.id {
			parts = append(parts, p)
		}
	}
	slices.Sort(parts)
	rt.sessMu.Unlock()

	// 2. Multicast the invalidation to the participating spaces.
	invalidate := func(p uint32) error {
		rt.trace(Event{Kind: EvInvalidateSent, Target: p})
		reply, err := rt.roundTrip(wire.Message{
			Kind:    wire.KindInvalidate,
			Session: sess,
			To:      p,
			Payload: []byte{},
		})
		if err != nil {
			return fmt.Errorf("end session: invalidate space %d: %w", p, err)
		}
		if reply.Err != "" {
			return fmt.Errorf("end session: space %d rejected invalidate: %s", p, reply.Err)
		}
		return nil
	}
	if err := fanOut(parts, invalidate); err != nil {
		return err
	}

	// Local invalidation and session teardown. With the warm cache the
	// invalidation is a demotion: bytes and table rows survive as stale
	// copies revalidated on first use next session (warmcache.go).
	if rt.skipLocalInvalidate {
		// Test-only fault injection: leave the local cache readable across
		// the session boundary so the history checker can prove it catches
		// the resulting stale read. Never set outside tests.
	} else if rt.warmEnabled() {
		rt.demoteWarm()
	} else {
		rt.table.Invalidate()
	}
	// Teardown is session-selective: this runtime may simultaneously be a
	// passive origin for other clients' sessions, whose delta baselines,
	// circulating modified sets and admission entries must survive this
	// session's end; this session's entries (callbacks and fetches made
	// into it) retire here as a participant's do at its INVALIDATE.
	rt.clearModified(sess)
	rt.coh.clearSession(sess)
	rt.admission.retire(sess, admitKey{})
	rt.trace(Event{Kind: EvSessionEnd})
	rt.sessMu.Lock()
	rt.sess = 0
	rt.ground = false
	clear(rt.parts)
	rt.sessMu.Unlock()
	if rt.checkInv {
		return rt.CheckIdleInvariants()
	}
	return nil
}

// AbortSession unconditionally tears down this runtime's session state
// without any network traffic: the cache and data allocation table are
// invalidated, the modified set, ship state, and batched allocations are
// dropped, and the session identifier is cleared. It is the failure
// recovery path for a session that can no longer complete its protocol —
// a partitioned or crashed peer left EndSession unable to deliver its
// write-backs or invalidations — and mirrors what serveInvalidate does
// when the invalidation does arrive. Modifications to remote data that
// were not yet written home are lost; locally owned heap data is
// untouched.
//
// The abort path never demotes: cached modifications that were not
// written home must not become revalidation baselines, and the baseline
// is the page — so the pages are zeroed and every row dropped.
func (rt *Runtime) AbortSession() {
	sess := rt.dropSession(false)
	// The abort clears are deliberately global (unlike EndSession's):
	// recovery drives every space back to a zero-coherency-state idle, and
	// a wedged peer session's leftovers must not survive it.
	rt.clearAllModified()
	rt.coh.clear()
	// The aborted session's own admission entries retire as EndSession's
	// do; other clients' sessions keep theirs.
	if sess != 0 {
		rt.admission.retire(sess, admitKey{})
	}
	rt.trace(Event{Kind: EvSessionEnd})
}

// dropSession is the local teardown a participant's INVALIDATE and an
// abort share: speculation and the frames background receivers parked
// are dropped (dropParked) before the cache is demoted for revalidation
// (warm) or discarded, and the session identifier and batched
// allocations are cleared. It returns the session it cleared.
func (rt *Runtime) dropSession(warm bool) uint64 {
	rt.dropParked()
	if warm {
		rt.demoteWarm()
	} else {
		rt.table.Invalidate()
	}
	rt.allocMu.Lock()
	clear(rt.batch)
	rt.allocMu.Unlock()
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	sess := rt.sess
	rt.sess, rt.ground = 0, false
	clear(rt.parts)
	return sess
}

// fanOut runs f once per target concurrently and waits for all of them,
// returning the joined errors. One target short-circuits the goroutine
// spawn; the common session (two spaces) pays nothing for the fan-out.
func fanOut[T any](targets []T, f func(T) error) error {
	switch len(targets) {
	case 0:
		return nil
	case 1:
		return f(targets[0])
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt T) {
			defer wg.Done()
			errs[i] = f(tgt)
		}(i, tgt)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// adoptSession joins an incoming message's session, enforcing the
// single-session-at-a-time rule.
func (rt *Runtime) adoptSession(sid uint64, from uint32) error {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	switch rt.sess {
	case 0:
		rt.sess = sid
		rt.ground = false
		clear(rt.parts)
		rt.parts[from] = true
		rt.pfBegin(sid)
		return nil
	case sid:
		rt.parts[from] = true
		return nil
	default:
		return fmt.Errorf("%w: active %#x, got %#x", ErrSessionBusy, rt.sess, sid)
	}
}

// mergeParts folds a received participant set into the session state.
func (rt *Runtime) mergeParts(parts []uint32) {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	for _, p := range parts {
		if p != rt.id {
			rt.parts[p] = true
		}
	}
}

// partsList snapshots the participant set (including self) for
// piggybacking on Call/Return.
func (rt *Runtime) partsList() []uint32 {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	out := make([]uint32, 0, len(rt.parts)+1)
	out = append(out, rt.id)
	for p := range rt.parts {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Call invokes proc on the target space, blocking until the results come
// back (§3.1: the calling thread is blocked; a thread on the callee
// executes the procedure). Must run inside a session.
func (rt *Runtime) Call(target uint32, proc string, args []Value) ([]Value, error) {
	rt.sessMu.Lock()
	sess := rt.sess
	if sess == 0 {
		rt.sessMu.Unlock()
		return nil, ErrNoSession
	}
	rt.parts[target] = true
	rt.sessMu.Unlock()

	payload, err := rt.buildTransferPayload(sess, target, args)
	if err != nil {
		return nil, fmt.Errorf("call %s@%d: %w", proc, target, err)
	}
	rt.stats.callsSent.Add(1)
	rt.trace(Event{Kind: EvCallSent, Target: target, Proc: proc})
	reply, err := rt.roundTrip(wire.Message{
		Kind:    wire.KindCall,
		Session: sess,
		To:      target,
		Proc:    proc,
		Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("call %s@%d: %w", proc, target, err)
	}
	if reply.Err != "" {
		// Error returns may still carry the callee's modified data set
		// (writes made before the failure are not transactional).
		if len(reply.Payload) > 0 {
			if rp, derr := wire.ReadCallPayload(reply.Payload); derr == nil {
				rt.mergeParts(rp.Parts)
				_ = rt.installItems(target, sess, rp.Items, pathCoh)
			}
		}
		return nil, fmt.Errorf("call %s@%d: %w", proc, target, remoteErr(reply.Err))
	}
	rp, err := wire.ReadCallPayload(reply.Payload)
	if err != nil {
		return nil, fmt.Errorf("call %s@%d: decode return: %w", proc, target, err)
	}
	rt.mergeParts(rp.Parts)
	if err := rt.installItems(target, sess, rp.Items, pathCoh); err != nil {
		return nil, fmt.Errorf("call %s@%d: install returned data: %w", proc, target, err)
	}
	return rt.argsToValues(rp.Args)
}

// remoteErr converts a callee-reported error string back into an error,
// re-typing sentinels that must survive multi-hop propagation: when a
// callee fences a restarted space deeper in the call chain, the fence
// crosses each hop as text in the Return's Err field, and every caller
// up the chain must still be able to match errors.Is(err,
// ErrOriginRestarted) — a nested restart is just as terminal (and just
// as non-retryable) as a direct one.
func remoteErr(s string) error {
	if tail := ErrOriginRestarted.Error(); strings.Contains(s, tail) {
		return fmt.Errorf("remote: %s%w", strings.TrimSuffix(s, tail), ErrOriginRestarted)
	}
	return fmt.Errorf("remote: %s", s)
}

// buildTransferPayload assembles the outbound payload for a control
// transfer to peer: converted arguments, the piggybacked modified data
// set, the eager closure (policy dependent), and the participant set. It
// first flushes batched remote allocations (§3.5: "the batch operations
// are performed when the activity of the thread moves to another address
// space"). The frame is sized once and is the only storage of its items:
// each is encoded straight into it, through the delta-shipping transform
// for the peer's edge (cohstate.go), so data the peer already holds
// crosses the boundary as a zero-byte token or a byte-range delta.
func (rt *Runtime) buildTransferPayload(sess uint64, peer uint32, args []Value) ([]byte, error) {
	if err := rt.flushAllocBatches(sess); err != nil {
		return nil, err
	}
	wireArgs := make([]wire.Arg, 0, len(args))
	for _, v := range args {
		a, err := rt.valueToArg(v)
		if err != nil {
			return nil, err
		}
		wireArgs = append(wireArgs, a)
	}
	// What background receivers parked installs before the modified set
	// is built: the transfer carries the thread of control away.
	rt.InstallParked()
	var closure []wire.DataItem
	if rt.policy == PolicyEager {
		var err error
		if closure, err = rt.eagerClosureFor(args); err != nil {
			return nil, err
		}
	}
	var lps []wire.LongPtr
	if rt.policy != PolicyLazy {
		if rt.coherence == CoherenceWriteBack {
			// Ablation: send modifications home instead of along with the
			// thread of control, with no onward obligation.
			_, sends, err := rt.writeHome(sess, false)
			if err == nil {
				err = rt.sendWriteBacks(sends)
			}
			if err != nil {
				return nil, err
			}
		}
		lps = rt.circulating(sess)
		defer rt.releaseCirculating(lps)
	}
	parts := rt.partsList()
	size := wire.CallSize(wireArgs, len(parts))
	for _, it := range closure {
		size += wire.ItemSize(len(it.Bytes))
	}
	var buf [16]uint32
	var pages []uint32
	tx := rt.table.Begin()
	if rt.policy != PolicyLazy {
		pages = rt.space.DirtyPages(buf[:0])
	}
	err := rt.visitDirty(tx, pages, func(e swizzle.Entry, rv types.Resolved) error {
		size += wire.ItemSize(rv.Canon)
		return nil
	})
	for _, lp := range lps {
		rv, rerr := rt.res.Resolve(lp.Type)
		size, err = size+wire.ItemSize(rv.Canon), cmp.Or(err, rerr)
	}
	if err != nil {
		tx.End()
		return nil, err
	}
	// The modified data set is one batch: the travelling rows of the dirty
	// pages, then the current values of the locally owned data modified
	// during the session, which keep traveling with the thread of control
	// (§3.4).
	e := xdr.NewEncoder(size)
	wire.PutArgs(e, wireArgs)
	w := wire.BeginItems(e)
	s := rt.shipTo(&w, peer, sess, false)
	n := 0
	err = rt.visitDirty(tx, pages, func(en swizzle.Entry, rv types.Resolved) error {
		n++
		return s.encode(&w, en.LP, true, rv, tx, en.Addr)
	})
	for _, lp := range lps {
		if err != nil {
			break
		}
		rv, _ := rt.res.Resolve(lp.Type) // resolved by the sizing pass
		err = s.encode(&w, lp, true, rv, tx, lp.Addr)
	}
	s.close(&w)
	if err == nil {
		err = rt.cleanDirty(pages, n)
	}
	tx.End()
	if err != nil {
		return nil, err
	}
	if len(closure) > 0 {
		// The closure may repeat a datum of the circulating set, so it ships
		// as a batch of its own: a first batch on an edge is not looked up.
		s := rt.shipTo(&w, peer, sess, false)
		for _, it := range closure {
			s.put(&w, it.LP, it.Dirty, it.Bytes)
		}
		s.close(&w)
	}
	w.End()
	wire.PutParts(e, parts)
	if rt.checkInv {
		if err := rt.CheckLocalInvariants(); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// circulating returns session sess's circulating modified set, sorted and
// compacted: arrivals append to the set, and each crossing compacts it, so
// it never outgrows its distinct size. The snapshot is one scratch slice
// claimed for the call (other claimants allocate), which
// releaseCirculating hands back.
func (rt *Runtime) circulating(sess uint64) []wire.LongPtr {
	rt.modMu.Lock()
	defer rt.modMu.Unlock()
	set := rt.sessionModified[sess]
	if len(set) > 0 {
		slices.SortFunc(set, compareLongPtr)
		set = slices.Compact(set)
		rt.sessionModified[sess] = set
	}
	lps := append(rt.modScratch[:0], set...)
	rt.modScratch = nil
	return lps
}

func (rt *Runtime) releaseCirculating(lps []wire.LongPtr) {
	rt.modMu.Lock()
	rt.modScratch = lps[:0]
	rt.modMu.Unlock()
}

func compareLongPtr(a, b wire.LongPtr) int {
	return cmp.Or(cmp.Compare(a.Space, b.Space), cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Type, b.Type))
}

// markModified adds lps, data that arrived home dirty, to session sess's
// circulating modified set: until session end, spaces holding older
// cached copies see them on the next control transfer. The first batch of
// a session hands its slice over as the set.
func (rt *Runtime) markModified(sess uint64, lps []wire.LongPtr) {
	if rt.coherence != CoherencePiggyback || len(lps) == 0 {
		return
	}
	rt.modMu.Lock()
	if set := rt.sessionModified[sess]; len(set) > 0 {
		lps = append(set, lps...)
	}
	rt.sessionModified[sess] = lps
	rt.modMu.Unlock()
}

// dropModified forgets session-modified tracking for the given data across
// every session (used when they are freed mid-session: the addresses may
// be recycled, so no session may keep re-encoding them). It sorts lps.
func (rt *Runtime) dropModified(lps []wire.LongPtr) {
	slices.SortFunc(lps, compareLongPtr)
	rt.modMu.Lock()
	defer rt.modMu.Unlock()
	for sess, set := range rt.sessionModified {
		rt.sessionModified[sess] = slices.DeleteFunc(set, func(lp wire.LongPtr) bool {
			_, freed := slices.BinarySearchFunc(lps, lp, compareLongPtr)
			return freed
		})
	}
}

// clearModified drops session sess's modified set at its teardown,
// leaving other concurrent sessions' sets untouched.
func (rt *Runtime) clearModified(sess uint64) {
	rt.modMu.Lock()
	delete(rt.sessionModified, sess)
	rt.modMu.Unlock()
}

// clearAllModified resets every session's modified set (the failure
// recovery path).
func (rt *Runtime) clearAllModified() {
	rt.modMu.Lock()
	clear(rt.sessionModified)
	rt.modMu.Unlock()
}

// sendWriteBacks sends write-backs to their origins concurrently and
// waits for the acks.
func (rt *Runtime) sendWriteBacks(sends []wire.Message) error {
	return fanOut(sends, func(m wire.Message) error {
		reply, err := rt.roundTrip(m)
		if err != nil {
			return fmt.Errorf("write back to space %d: %w", m.To, err)
		}
		rt.stats.writeBackMsgs.Add(1)
		if reply.Err != "" {
			return fmt.Errorf("space %d rejected write-back: %s", m.To, reply.Err)
		}
		return nil
	})
}

// writeHome writes the cache's modified data set home, one write-back
// payload per origin in ascending order, each a final shipment through the
// origin's edge (dirty is the flag its items carry): what an origin
// already holds from an earlier crossing is dropped. It cleans the dirty
// pages and returns the origins the set held data of, and a message for
// each whose shipment is not empty.
func (rt *Runtime) writeHome(sess uint64, dirty bool) (origins []uint32, sends []wire.Message, err error) {
	var buf [16]uint32
	tx := rt.table.Begin()
	defer tx.End()
	pages := rt.space.DirtyPages(buf[:0])
	var sizes []int // parallel to origins
	n := 0
	err = rt.visitDirty(tx, pages, func(e swizzle.Entry, rv types.Resolved) error {
		i, found := slices.BinarySearch(origins, e.LP.Space)
		if !found {
			origins, sizes = slices.Insert(origins, i, e.LP.Space), slices.Insert(sizes, i, 4)
		}
		sizes[i] += wire.ItemSize(rv.Canon)
		n++
		return nil
	})
	for i, origin := range origins {
		if err != nil {
			break
		}
		e := xdr.NewEncoder(sizes[i])
		w := wire.BeginItems(e)
		s := rt.shipTo(&w, origin, sess, true)
		err = rt.visitDirty(tx, pages, func(en swizzle.Entry, rv types.Resolved) error {
			if en.LP.Space != origin {
				return nil
			}
			return s.encode(&w, en.LP, dirty, rv, tx, en.Addr)
		})
		s.close(&w)
		if err != nil || w.Len() == 0 {
			continue // an empty shipment: the origin already holds every value
		}
		w.End()
		rt.trace(Event{Kind: EvWriteBackSent, Target: origin, Count: w.Len()})
		sends = append(sends, wire.Message{Kind: wire.KindWriteBack, Session: sess, To: origin, Payload: e.Bytes()})
	}
	if err == nil {
		err = rt.cleanDirty(pages, n)
	}
	return origins, sends, err
}

// serveCall executes one incoming RPC request end to end and returns its
// RETURN reply's payload and error string; the call server sends it.
func (rt *Runtime) serveCall(m wire.Message) ([]byte, string) {
	if err := rt.adoptSession(m.Session, m.From); err != nil {
		return nil, err.Error()
	}
	p, err := wire.ReadCallPayload(m.Payload)
	if err != nil {
		return nil, fmt.Sprintf("decode call: %v", err)
	}
	rt.mergeParts(p.Parts)
	if err := rt.installItems(m.From, m.Session, p.Items, pathCoh); err != nil {
		return nil, fmt.Sprintf("install: %v", err)
	}
	args, err := rt.argsToValues(p.Args)
	if err != nil {
		return nil, fmt.Sprintf("swizzle args: %v", err)
	}
	rt.procsMu.RLock()
	h, ok := rt.procs[m.Proc]
	rt.procsMu.RUnlock()
	if !ok {
		return nil, fmt.Sprintf("%v: %q", ErrUnknownProc, m.Proc)
	}
	rt.stats.callsServed.Add(1)
	rt.trace(Event{Kind: EvCallServed, Target: m.From, Proc: m.Proc})
	results, err := h(&Ctx{rt: rt, from: m.From}, args)
	if err != nil {
		// The paper's model has no transactions: writes the handler made
		// before failing already happened, so the modified data set still
		// travels back with the (error) return rather than being lost if
		// the session ends next.
		out, perr := rt.buildTransferPayload(m.Session, m.From, nil)
		if perr != nil {
			return nil, err.Error()
		}
		return out, err.Error()
	}
	out, err := rt.buildTransferPayload(m.Session, m.From, results)
	if err != nil {
		return nil, fmt.Sprintf("build return: %v", err)
	}
	return out, ""
}

// serveInvalidate implements the end-of-session invalidation on a
// participant (§3.4). With the warm cache enabled the cached pages and
// table rows are demoted to revalidatable stale copies instead of being
// dropped; the seed behavior (discard outright) remains for the other
// policies and for DisableWarmCache.
//
// How much state goes depends on whether this space was adopted into the
// ending session. A participant (rt.sess == m.Session) tears down fully:
// cache, table, session identifier, batched allocations. A space that
// merely served the session as a passive origin — including an origin
// concurrently inside a *different* session of its own, or serving other
// clients' sessions — must lose only the ending session's edges: its
// delta-ship baselines and circulating modified set. Wiping another
// client's baselines here is exactly the single-client assumption this
// split removes ("delta ... without a baseline" failures when sessions
// overlap on one origin).
func (rt *Runtime) serveInvalidate(m wire.Message) {
	// The ground's exchanges in the ending session can no longer be
	// retried: the transport delivers each route in FIFO order, so every
	// attempt has arrived before this frame did. Their admission entries
	// go; this INVALIDATE's attempt set stays, as its ack may be lost.
	rt.admission.retire(m.Session, keyOf(m))
	rt.sessMu.Lock()
	adopted := rt.sess == m.Session
	rt.sessMu.Unlock()
	if !adopted {
		rt.clearModified(m.Session)
		rt.coh.clearSession(m.Session)
		if rt.checkInv {
			// Other sessions' serves may be mutating the heap and cache
			// concurrently; hold the serve lock so the checker reads a
			// consistent snapshot.
			rt.serveMu.RLock()
			err := rt.CheckLocalInvariants()
			rt.serveMu.RUnlock()
			if err != nil {
				rt.reply(m, wire.KindInvalidateAck, nil, err.Error())
				return
			}
		}
		rt.reply(m, wire.KindInvalidateAck, nil, "")
		return
	}
	// Nothing is waited for (dropSession), so an exchange whose reply
	// never comes cannot stall the ack.
	rt.dropSession(rt.warmEnabled())
	rt.clearModified(m.Session)
	rt.coh.clearSession(m.Session)
	if rt.checkInv {
		if err := rt.CheckIdleInvariants(); err != nil {
			rt.reply(m, wire.KindInvalidateAck, nil, err.Error())
			return
		}
	}
	rt.reply(m, wire.KindInvalidateAck, nil, "")
}

// visitDirty walks the cache's part of the modified data set, the one that
// travels with the thread of control, under one hold of the table (tx):
// it calls f with each travelling row of the dirty pages (ascending) and
// its resolved type, in page-then-offset order (swizzle.Tx.VisitPages),
// until f fails. Every resident object whose span touches a dirty page
// travels — it may have been modified on any of its pages. Under
// Options.Concurrent the rows' Touched marks decide — a resident neighbor
// that shares a dirty page but was never written this session must not
// travel, or its (possibly stale) cached value would overwrite a
// concurrent session's committed write at the origin. Without Concurrent
// the single-active-thread property makes the neighbor's bytes identical
// to the origin's committed value, so page-grain shipping (the paper's
// protocol) stays byte-for-byte intact.
func (rt *Runtime) visitDirty(tx swizzle.Tx, pages []uint32, f func(e swizzle.Entry, rv types.Resolved) error) error {
	var err error
	tx.VisitPages(pages, func(e swizzle.Entry) bool {
		if !e.Resident || rt.concurrent && !e.Touched {
			return true
		}
		var rv types.Resolved
		if rv, err = rt.res.Resolve(e.LP.Type); err == nil {
			err = f(e, rv)
		}
		return err == nil
	})
	return err
}

// cleanDirty hands the dirtiness obligation of the pages to the n items
// written from them, which travel with the thread of control: it cleans
// the pages and drops writable ones to read-only so later writes fault
// again. Pages still awaiting data (ProtNone, e.g. a partially resident
// page that received a circulating modified item) must stay fully
// protected — raising them would expose zeroed neighbors.
func (rt *Runtime) cleanDirty(pages []uint32, n int) error {
	if len(pages) == 0 {
		return nil
	}
	for _, pn := range pages {
		if err := rt.space.MarkDirty(pn, false); err != nil {
			return err
		}
		prot, err := rt.space.ProtOf(pn)
		if err != nil {
			return err
		}
		if prot == vmem.ProtReadWrite {
			if err := rt.space.SetProt(pn, vmem.ProtRead); err != nil {
				return err
			}
		}
	}
	rt.stats.dirtyItemsSent.Add(uint64(n))
	rt.trace(Event{Kind: EvDirtyCollected, Count: n})
	return nil
}

// applyHome installs body into the locally owned heap object at lp: the
// receiving half of the write-back path and of circulating modified
// items arriving home. Pointer fields swizzle through tb.
func (rt *Runtime) applyHome(tb ptrTable, lp wire.LongPtr, body []byte) error {
	if lp.Space != rt.id {
		return fmt.Errorf("write-back for foreign datum %v", lp)
	}
	rv, err := rt.res.Resolve(lp.Type)
	if err != nil {
		return err
	}
	if err := decodeObject(rt.space, tb, rv, lp.Addr, body); err != nil {
		return fmt.Errorf("apply write-back %v: %w", lp, err)
	}
	return nil
}

// serveWriteBack handles a write-back message from the ground runtime (or
// from the CoherenceWriteBack ablation). Items resolve through the ship
// state for the sender's edge, so delta-encoded bodies are patched
// against the recorded view before being applied.
func (rt *Runtime) serveWriteBack(m wire.Message) {
	items, err := wire.ReadItemsPayload(m.Payload)
	if err != nil {
		rt.reply(m, wire.KindWriteBackAck, nil, fmt.Sprintf("decode: %v", err))
		return
	}
	// Applying mutates the heap other serves may be encoding from: take
	// the write side of the serve lock.
	rt.serveMu.Lock()
	defer rt.serveMu.Unlock()
	resolve := rt.cohAdmit(m.From, m.Session, items)
	for it, err := items.Next(); err == nil; it, err = items.Next() {
		full, fresh := it.Bytes, true
		if resolve {
			if full, fresh, err = rt.cohResolve(m.From, m.Session, it); err != nil {
				rt.reply(m, wire.KindWriteBackAck, nil, err.Error())
				return
			}
		}
		if !fresh {
			continue // the heap already holds this value from an earlier crossing
		}
		if err := rt.applyHome(rt.table, it.LP, full); err != nil {
			rt.reply(m, wire.KindWriteBackAck, nil, err.Error())
			return
		}
	}
	rt.reply(m, wire.KindWriteBackAck, nil, "")
}

// installItems caches incoming data items from space `from` within
// session sess: the receiving half of fetch replies and of the
// piggybacked modified data set. Items whose origin is this space are
// applied directly to the heap (the modification has come home). For the
// rest, the object's bytes are installed in its protected page area
// slot; a page's protection is released only once every entry on it is
// resident, and released pages are sealed against further allocation so
// first accesses stay detectable.
//
// path names the exchange the items arrived on (installPath).
func (rt *Runtime) installItems(from uint32, sess uint64, items wire.ItemReader, path installPath) error {
	if items.Len() == 0 {
		return nil
	}
	// Installs are serialized: concurrent batches (demand fan-out,
	// prefetch, call returns) may share pages through their closures,
	// and the release-protection decision below must observe a consistent
	// all-resident state.
	rt.installMu.Lock()
	defer rt.installMu.Unlock()
	// The table stays locked for the whole batch: each item costs one
	// long-pointer lookup (its row handle carries the rest) plus one per
	// pointer field it holds.
	tx := rt.table.Begin()
	err := rt.installBatch(tx, from, sess, items, path)
	tx.End()
	if err == nil && rt.checkInv {
		err = rt.CheckLocalInvariants()
	}
	return err
}

// installPath names the exchange an install batch arrived on, which
// decides the items it may carry and the counters they feed.
type installPath uint8

const (
	// pathFetch is a FETCH reply. It bypasses the ship state; a delta item
	// there is a protocol error.
	pathFetch installPath = iota
	// pathRevalidate is the reply to a hashed FETCH, the warm fault's stale
	// pass (warmcache.go). Besides full bodies it may carry ItemCurrent
	// tokens, and it feeds the CohRevalidate counters instead of the
	// install counters.
	pathRevalidate
	// pathCoh is the coherency path (Call/Return piggybacks): items resolve
	// through the ship state for the sender's edge, so delta bodies are
	// patched against the recorded view and zero-byte tokens skip the
	// decode entirely — the local copy is known current, and only the
	// item's dirty obligation is honored.
	pathCoh
)

// errCurrentUnhashed rejects an ItemCurrent token anywhere but in the
// reply to a hashed FETCH: only an offered sum can make a copy current.
var errCurrentUnhashed = errors.New("core: current item outside a hashed fetch reply")

// pageTouch is one cache page an install batch put bytes on; dirty when
// any of them carried a write-back obligation.
type pageTouch struct {
	pn    uint32
	dirty bool
}

// installCounts is what one install batch adds to the runtime's
// counters, summed locally and added once when the batch ends.
type installCounts struct {
	items, bytes                  uint64
	hits, misses, revalidateBytes uint64
}

// addInstalls adds one batch's counts.
func (rt *Runtime) addInstalls(n installCounts) {
	if n.items > 0 {
		rt.stats.itemsInstalled.Add(n.items)
		rt.stats.bytesInstalled.Add(n.bytes)
	}
	if n.hits > 0 {
		rt.stats.cohRevalidateHits.Add(n.hits)
	}
	if n.misses > 0 {
		rt.stats.cohRevalidateMisses.Add(n.misses)
		rt.stats.cohRevalidateBytes.Add(n.revalidateBytes)
	}
}

// installBatch is installItems' body, run with installMu and the table
// held. It loads the tracer once and adds to the counters once.
func (rt *Runtime) installBatch(tx swizzle.Tx, from uint32, sess uint64, items wire.ItemReader, path installPath) error {
	// Items arrive in (page, offset) runs, so consecutive duplicates are
	// dropped on append and the rest after the sort below.
	touched := rt.installTouched[:0]
	var home []wire.LongPtr // dirty data installed at home, for markModified
	var n installCounts
	tr := rt.tracerNow()
	defer func() {
		rt.installTouched = touched[:0]
		rt.markModified(sess, home)
		rt.addInstalls(n)
	}()
	resolve := path == pathCoh && rt.cohAdmit(from, sess, items)
	// A reader from wire.ReadItems fails only at its end (io.EOF).
	for it, err := items.Next(); err == nil; it, err = items.Next() {
		body, fresh := it.Bytes, true
		switch {
		case it.Current:
			if path != pathRevalidate {
				return fmt.Errorf("%v: %w", it.LP, errCurrentUnhashed)
			}
			fresh = false // the demoted page already holds these bytes
		case resolve:
			var err error
			if body, fresh, err = rt.cohResolve(from, sess, it); err != nil {
				return err
			}
		case it.Delta:
			return fmt.Errorf("core: delta item %v outside the coherency path", it.LP)
		}
		if it.LP.Space == rt.id {
			if fresh {
				if err := rt.applyHome(tx, it.LP, body); err != nil {
					return err
				}
			}
			if it.Dirty && path == pathCoh {
				home = append(slices.Grow(home, items.Len()+1), it.LP) // grows once: the rest of the batch fits
			}
			continue
		}
		var row swizzle.Row
		if it.Current {
			// The offered sum matched the origin's current encoding, so the
			// stale row is promoted in place. A row promoted, refetched or
			// freed meanwhile ignores the token.
			var ok bool
			if row, ok = tx.LookupLP(it.LP); !ok || !tx.Entry(row).Stale {
				continue
			}
		} else {
			var err error
			if row, err = tx.SwizzleRow(it.LP); err != nil {
				return err
			}
		}
		e := tx.Entry(row)
		addr := e.Addr
		if fresh && path != pathCoh {
			// An object this session already wrote (or allocated) must not
			// be clobbered by a fetch-path copy arriving afterwards: the
			// bounded eager closure and the prefetcher both over-deliver,
			// and an over-delivered body encoded from the origin's pre-write
			// state would silently revert the pending local modification
			// before it is collected. Coherency-path items are exempt — a
			// circulating modified set travels in thread-of-control order,
			// so its value supersedes the local copy (e.g. a chained call
			// that rewrote the same object downstream). A write marks the
			// row before its bytes change (Ref.touch), so a batch holding
			// the table while the write lands still sees the mark.
			if e.Resident && e.Touched {
				fresh = false
			}
		}
		if it.Dirty {
			// Adopting a circulating modification adopts its write-back
			// obligation: the item must survive the Touched filter when
			// this session's modified data set is collected.
			tx.Touch(row)
		}
		if fresh {
			rv, err := rt.res.Resolve(it.LP.Type)
			if err != nil {
				return err
			}
			if err := decodeObject(rt.space, tx, rv, addr, body); err != nil {
				return fmt.Errorf("install %v: %w", it.LP, err)
			}
			// The page now holds body, the canonical encoding the origin
			// sent. The warm fault hashes it as its memo; any other path
			// leaves the row without one, checking first so a cold install
			// adds no store (warmcache.go).
			switch {
			case path == pathRevalidate:
				tx.SetMemo(row, wire.Sum64(body))
			case e.HasMemo:
				tx.DropMemo(row)
			}
		}
		// A revalidation is accounted by the revalidation counters alone:
		// summing both families would double count the same datum.
		switch {
		case it.Current:
			n.hits++
			if tr != nil {
				rt.traceTo(tr, Event{Kind: EvValidateHit, LP: it.LP})
			}
		case !fresh:
		case path != pathRevalidate:
			n.items++
			n.bytes += uint64(len(body))
			if tr != nil {
				rt.traceTo(tr, Event{Kind: EvInstall, LP: it.LP, Count: len(body)})
			}
		case e.Stale:
			n.misses++
			n.revalidateBytes += uint64(len(body))
			if tr != nil {
				rt.traceTo(tr, Event{Kind: EvValidateMiss, LP: it.LP, Count: len(body)})
			}
		}
		tx.MarkResident(row)
		first := rt.space.PageOf(addr)
		last := first
		if e.Size > 1 {
			last = rt.space.PageOf(addr + vmem.VAddr(e.Size-1))
		}
		for pn := first; pn <= last; pn++ {
			if pt := (pageTouch{pn, it.Dirty}); len(touched) == 0 || touched[len(touched)-1] != pt {
				touched = append(touched, pt)
			}
		}
	}
	// Ascending page order, a page's dirty touch (if any) first.
	slices.SortFunc(touched, func(a, b pageTouch) int {
		if c := cmp.Compare(a.pn, b.pn); c != 0 {
			return c
		}
		if a.dirty == b.dirty {
			return 0
		}
		if a.dirty {
			return -1
		}
		return 1
	})
	for i, pt := range touched {
		pn := pt.pn
		if i > 0 && touched[i-1].pn == pn {
			continue
		}
		if pt.dirty {
			if err := rt.space.MarkDirty(pn, true); err != nil {
				return err
			}
		}
		prot, err := rt.space.ProtOf(pn)
		if err != nil {
			return err
		}
		if prot != vmem.ProtNone {
			continue // already released earlier
		}
		if !tx.AllResident(pn) {
			continue // neighbors still missing; keep the page protected
		}
		newProt := vmem.ProtRead
		if pt.dirty {
			newProt = vmem.ProtReadWrite
		}
		if err := rt.space.SetProt(pn, newProt); err != nil {
			return err
		}
		tx.Seal(pn)
	}
	return nil
}
