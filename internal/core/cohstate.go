package core

import (
	"bytes"
	"fmt"
	"sync"

	"smartrpc/internal/delta"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// This file implements delta shipping for the coherency protocol. The
// paper's protocol (§3.4) re-transmits the full modified data set on
// every address-space boundary crossing: all objects on dirty cache
// pages plus the origin's session-modified set, each as a complete
// canonical encoding. Most of those bytes are redundant — the page-grain
// dirty tracking sweeps up unmodified neighbors, and the circulating
// modified set is re-sent to spaces that already received it on an
// earlier crossing.
//
// The ship state remembers, per peer and per datum, the canonical bytes
// and crossing version that peer last exchanged with us (sent to it, or
// received from it — either way the peer holds them). On the next
// crossing to that peer a datum is:
//
//   - shipped as a zero-byte *token* when its bytes match the peer's
//     recorded view (the no-change-since-last-crossing case). The token
//     still carries the dirty bit: the write-back obligation and the
//     receiver's duty to keep re-circulating the item must keep hopping
//     with the thread of control even when no bytes need to move —
//     dropping the item entirely would strand the modification on a
//     space that is not the ground runtime and lose it at session end;
//   - dropped entirely on *final* shipments (end-of-session write-back,
//     where an up-to-date origin has already applied the value and no
//     onward obligation exists);
//   - shipped as a byte-range delta against the recorded view when that
//     is smaller than the full body;
//   - shipped full otherwise (and always on first exchange).
//
// Crossing versions advance by one on each item exchanged for a datum on
// a peer edge, in lockstep on both sides because both process the same
// item stream in the same order; a delta or token item carries the
// version it applies to, so any desynchronization is detected instead of
// silently corrupting data.
//
// An edge is a log folded on demand (foldLog) whose only storage is the
// frames that crossed it. The modified data set is meant to be a cheap
// piggyback on CALL/RETURN, and most edges carry data once per session,
// so a crossing that needs no lookup does no per-datum work beyond its
// encode and install: the sender encodes each item straight into the frame
// (shipBatch), the receiver reads it there (wire.ItemReader), and both
// append a reader on the batch as it sits in the frame to the edge's
// unindexed tail. The index is built only when a crossing has to look
// something up: the sender ships to an edge that already has history (each
// item is then rewritten in the frame as a token, a delta or nothing), or
// the receiver is handed a batch holding a token or delta item, which
// names a recorded view. Folding reads the tail in crossing order —
// version + 1, bytes = the latest — which is what a map maintained item by
// item computes, and both ends fold the same stream: the versions are in
// lockstep whenever anyone looks. A fold costs one read and one map insert
// per logged item, once: an edge crossed k times pays it at crossing 2, an
// edge crossed once never.
//
// State is session-scoped: a session's edges go with its cache at its
// invalidation. An origin serving concurrent sessions keeps one edge per
// client — one's teardown must not destroy another's delta baselines.
//
// The Options.DisableDeltaShip ablation restores full shipping (the
// paper's modeled protocol); it must be set identically on every space.

// foldLogMax bounds a foldLog's tail (in items): a log nobody reads is
// folded, which deduplicates it, every time it passes this size.
const foldLogMax = 1 << 17

// foldLog is one coherency edge's ship state: what the peer is known to
// hold, per datum. A writer appends a reader on its batch of full items to
// the tail; a reader folds the tail into the index first.
type foldLog struct {
	index  map[wire.LongPtr]cohView
	log    []wire.ItemReader
	logged int // items in log
}

func (l *foldLog) append(items wire.ItemReader) {
	l.log = append(l.log, items)
	l.logged += items.Len()
	if l.logged > foldLogMax {
		l.fold()
	}
}

func (l *foldLog) fold() {
	if l.index == nil {
		l.index = make(map[wire.LongPtr]cohView, l.logged)
	}
	for _, items := range l.log {
		// A logged batch was read whole (wire.ReadItems) or written here:
		// Next fails only at its end (io.EOF).
		for it, err := items.Next(); err == nil; it, err = items.Next() {
			l.index[it.LP] = l.index[it.LP].with(it)
		}
	}
	l.log, l.logged = nil, 0
}

// cohView is what one peer is known to hold for one datum.
type cohView struct {
	// ver counts the items exchanged with the peer for this datum; a
	// delta or token item names the version it patches.
	ver uint32
	// bytes is the canonical encoding at ver. It aliases the frame it
	// crossed in, never a pooled one (wire.ReadFrame copies coherency-path
	// payloads out), or for a delta the new full body's own bytes.
	bytes []byte
}

// with returns the view after one more exchange, of the full item it.
func (v cohView) with(it wire.DataItem) cohView {
	return cohView{ver: v.ver + 1, bytes: it.Bytes}
}

// cohPeer is one edge's ship state: the views recorded for a peer, tagged
// with the session they belong to. The protocol exchanges coherency items
// on an edge only within one session at a time (distinct concurrent
// clients are distinct peers), so a session change on an edge resets it.
type cohPeer struct {
	sess uint64
	foldLog
}

// cohState is a runtime's delta-shipping memory, guarded by its own
// mutex: the send side runs on the session's active thread while the
// receive side runs on dispatcher-spawned handlers — with concurrent
// shared-origin sessions, several of each at once.
type cohState struct {
	mu    sync.Mutex
	peers map[uint32]*cohPeer
}

// edge returns the ship state for (peer, sess), creating it: an edge
// recorded under a different session is reset, since its baselines belong
// to a session that ended (or died) without this space seeing the
// teardown. Edges are created only for a batch that holds items, so an
// existing one has history. Caller holds cs.mu.
func (cs *cohState) edge(peer uint32, sess uint64) *cohPeer {
	if cs.peers == nil {
		cs.peers = make(map[uint32]*cohPeer)
	}
	p := cs.peers[peer]
	if p == nil || p.sess != sess {
		p = &cohPeer{sess: sess}
		cs.peers[peer] = p
	}
	return p
}

// clear drops all ship state (the failure-reset path: AbortSession).
func (cs *cohState) clear() {
	cs.mu.Lock()
	cs.peers = nil
	cs.mu.Unlock()
}

// clearSession drops every edge recorded under sess (end-of-session
// teardown and received invalidations), leaving other sessions' edges
// untouched.
func (cs *cohState) clearSession(sess uint64) {
	cs.mu.Lock()
	for peer, p := range cs.peers {
		if p.sess == sess {
			delete(cs.peers, peer)
		}
	}
	cs.mu.Unlock()
}

// shipBatch writes one coherency-path batch bound for peer into a frame's
// item vector through the ship state for session sess. Each item is
// written full; on an edge with history it is then looked up and
// rewritten in place as a token, a delta, or — on a final shipment, after
// which the receiver has no onward obligation — nothing. A batch on an
// edge without history is not looked up — it must hold each datum at most
// once — and is logged whole when it closes. It holds rt.coh.mu from
// shipTo to close; its methods take the writer it was opened on.
type shipBatch struct {
	rt    *Runtime
	peer  uint32
	sess  uint64
	final bool
	p     *cohPeer // the edge when it has history; nil ships every item full
	mark  wire.ItemMark
	own   []byte // the new full bodies of delta items, back to back

	all, skipped, deltas, body uint64
}

// shipTo opens a batch bound for peer at the end of w.
func (rt *Runtime) shipTo(w *wire.ItemWriter, peer uint32, sess uint64, final bool) shipBatch {
	rt.coh.mu.Lock()
	s := shipBatch{rt: rt, peer: peer, sess: sess, final: final, mark: w.Mark()}
	if p := rt.coh.peers[peer]; p != nil && p.sess == sess && !rt.noDeltaShip {
		s.p = p
	}
	return s
}

// encode writes the datum lp at addr, encoded through tb, as the batch's
// next item. An error abandons the frame, which desynchronizes the edge as
// a lost frame would: the next crossing that names a version reports it.
func (s *shipBatch) encode(w *wire.ItemWriter, lp wire.LongPtr, dirty bool, rv types.Resolved, tb ptrTable, addr vmem.VAddr) error {
	at := w.BeginBody(lp, dirty)
	if err := encodeObjectInto(w.Enc(), s.rt.space, tb, rv, addr); err != nil {
		return fmt.Errorf("encode %v: %w", lp, err)
	}
	s.ship(w, lp, dirty, at, w.EndBody(at))
	return nil
}

// put writes body, lp's canonical encoding, as the batch's next item.
func (s *shipBatch) put(w *wire.ItemWriter, lp wire.LongPtr, dirty bool, body []byte) {
	at, framed := w.PutBody(lp, dirty, body)
	s.ship(w, lp, dirty, at, framed)
}

// ship passes the full item just written at offset at, whose body sits in
// the frame as body, through the edge's index, advancing it.
func (s *shipBatch) ship(w *wire.ItemWriter, lp wire.LongPtr, dirty bool, at int, body []byte) {
	s.all++
	if s.p == nil {
		s.body += uint64(len(body))
		return
	}
	s.p.fold()
	v, ok := s.p.index[lp]
	next := cohView{ver: v.ver + 1, bytes: body}
	// The item against the peer's view: a token until given a delta.
	based := wire.DataItem{LP: lp, Dirty: dirty, Delta: true, BaseVer: v.ver}
	switch {
	case !ok:
	case bytes.Equal(v.bytes, body):
		// Unchanged since the last crossing on this edge: the peer holds
		// exactly these bytes already, so no body travels.
		s.skipped++
		w.Unput(at)
		if s.final {
			return
		}
		w.Put(based)
		next.bytes, body = v.bytes, nil
	default:
		runs := delta.Diff(v.bytes, body, delta.DefaultGap)
		// A delta replaces the opaque body and adds the BaseVer word;
		// compare padded wire costs before committing to it.
		if runs != nil && 4+pad4(delta.EncodedSize(runs)) < pad4(len(body)) {
			based.Bytes = delta.Encode(runs)
			n := len(s.own)
			s.own = append(s.own, body...)
			next.bytes, body = s.own[n:len(s.own):len(s.own)], based.Bytes
			w.Unput(at)
			w.Put(based)
			s.deltas++
		}
	}
	s.p.index[lp] = next
	s.body += uint64(len(body))
}

// close ends the batch: a batch on an edge without history becomes its
// tail, and the batch is added to the counters — under full shipping too
// (the ablation, which keeps no edge): the modes compare on them.
func (s *shipBatch) close(w *wire.ItemWriter) {
	defer s.rt.coh.mu.Unlock()
	if s.all == 0 {
		return
	}
	if s.p == nil && !s.rt.noDeltaShip {
		s.rt.coh.edge(s.peer, s.sess).append(w.Since(s.mark))
	}
	st := &s.rt.stats
	st.cohItemsShipped.Add(s.all - s.skipped)
	st.cohItemsSkipped.Add(s.skipped)
	st.cohDeltaItems.Add(s.deltas)
	st.cohItemBytes.Add(s.body)
}

func pad4(n int) int { return (n + 3) &^ 3 }

// cohAdmit takes in a coherency-path batch from peer (within session
// sess) and reports whether its items must each go through cohResolve. A
// batch of full items joins the edge's tail as the reader on it, mirroring
// the sender: every item is its own fresh body. A token or delta item
// names a recorded view, so its whole batch resolves through the index.
func (rt *Runtime) cohAdmit(peer uint32, sess uint64, items wire.ItemReader) (resolve bool) {
	resolve = items.Has(wire.ItemDelta)
	if resolve || rt.noDeltaShip || items.Len() == 0 {
		return resolve
	}
	rt.coh.mu.Lock()
	rt.coh.edge(peer, sess).append(items)
	rt.coh.mu.Unlock()
	return false
}

// cohResolve resolves one item of such a batch to its full canonical bytes
// against the edge's index — folded first — and advances the index like
// the sender's. fresh is false when this space last exchanged these very
// bytes for the datum: the caller may skip re-installing them (it must
// still honor the item's dirty bit).
func (rt *Runtime) cohResolve(peer uint32, sess uint64, it wire.DataItem) (full []byte, fresh bool, err error) {
	if rt.noDeltaShip {
		if it.Delta {
			return nil, false, fmt.Errorf("core: delta item for %v received with delta shipping disabled", it.LP)
		}
		return it.Bytes, true, nil
	}
	rt.coh.mu.Lock()
	defer rt.coh.mu.Unlock()
	p := rt.coh.edge(peer, sess)
	p.fold()
	v, ok := p.index[it.LP]
	full, fresh = it.Bytes, true
	switch {
	case !it.Delta:
	case !ok:
		return nil, false, fmt.Errorf("core: delta for %v from space %d without a baseline", it.LP, peer)
	case v.ver != it.BaseVer:
		return nil, false, fmt.Errorf("core: delta for %v from space %d patches version %d, have %d",
			it.LP, peer, it.BaseVer, v.ver)
	case len(it.Bytes) == 0:
		// Token: no change since the last crossing; the recorded view
		// is the current value.
		full, fresh = v.bytes, false
	default:
		runs, err := delta.Decode(it.Bytes)
		if err == nil {
			full, err = delta.Apply(v.bytes, runs)
		}
		if err != nil {
			return nil, false, fmt.Errorf("core: delta for %v: %w", it.LP, err)
		}
	}
	p.index[it.LP] = cohView{ver: v.ver + 1, bytes: full}
	return full, fresh, nil
}
