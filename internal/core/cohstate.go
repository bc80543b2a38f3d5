package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"smartrpc/internal/delta"
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
// An edge is a log folded on demand (foldLog). The modified data set is
// meant to be a cheap piggyback on CALL/RETURN, and most edges carry data
// once per session, so a crossing that needs no lookup does no per-datum
// work: both ends append the batch of full items that crossed — the slice
// and its bytes exist anyway — to the edge's unindexed tail. The index is
// built only when a crossing has to look something up: the sender ships to
// an edge that already has history (any datum may now be a token or a
// delta), or the receiver is handed a batch holding a token or delta item,
// which names a recorded view. Folding replays the tail in crossing order
// — version + 1, bytes = the latest — which is what a map maintained item
// by item computes, and both ends fold the same stream: the versions are
// in lockstep whenever anyone looks. A fold costs one map insert per
// logged item, once: an edge crossed k times pays it at crossing 2 (the
// crossings that look things up keep the index current from then on), an
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
// hold, per datum, for writers that far outnumber readers. A writer appends
// its whole batch of full items to an unindexed tail (the slice is
// retained, not copied); a reader first folds the tail into the index, in
// append order, and then works on the index.
type foldLog struct {
	index  map[wire.LongPtr]cohView
	log    [][]wire.DataItem
	logged int // items in log
}

func (l *foldLog) append(items []wire.DataItem) {
	l.log = append(l.log, items)
	l.logged += len(items)
	if l.logged > foldLogMax {
		l.fold()
	}
}

func (l *foldLog) fold() {
	if l.index == nil {
		l.index = make(map[wire.LongPtr]cohView, l.logged)
	}
	for _, items := range l.log {
		for _, it := range items {
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
	// bytes is the canonical encoding at ver. Slices alias the encode
	// arena or the message payload they arrived in; neither is reused.
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

// edge returns the ship state for (peer, sess) and whether it was just
// created: an edge recorded under a different session is reset, since its
// baselines belong to a session that ended (or died) without this space
// seeing the teardown. Edges are created only for a batch that holds
// items, so an existing one has history. Caller holds cs.mu.
func (cs *cohState) edge(peer uint32, sess uint64) (p *cohPeer, fresh bool) {
	if cs.peers == nil {
		cs.peers = make(map[uint32]*cohPeer)
	}
	p = cs.peers[peer]
	if p == nil || p.sess != sess {
		p = &cohPeer{sess: sess}
		cs.peers[peer] = p
		return p, true
	}
	return p, false
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

// deltaShipItems rewrites a coherency-path item batch bound for peer
// through the ship state for session sess: items the peer already holds
// shrink to tokens, changed items become deltas when profitable, and the
// rest ship full. final marks shipments after which the receiver has no
// onward obligation (end-of-session and coherence-writeback deliveries to
// the origin): there an unchanged item is dropped instead of tokenized.
// The first batch on an edge is not looked up — it must hold each datum at
// most once — and becomes the edge's tail; later ones fold the edge and go
// through the index. The input slice is the output's storage and is
// retained, bytes included, as the recorded views.
func (rt *Runtime) deltaShipItems(peer uint32, sess uint64, items []wire.DataItem, final bool) []wire.DataItem {
	if len(items) == 0 {
		return items
	}
	all := uint64(len(items))
	var skipped, deltas, body uint64
	// Full shipping (the ablation, which keeps no edge) still feeds the
	// accounting: the two modes compare on the same byte counters.
	full := rt.noDeltaShip
	if !full {
		rt.coh.mu.Lock()
		p, fresh := rt.coh.edge(peer, sess)
		if full = fresh; fresh {
			p.append(items)
		} else {
			p.fold()
			items, skipped, deltas, body = p.ship(items, final)
		}
		rt.coh.mu.Unlock()
	}
	if full {
		for i := range items {
			body += uint64(len(items[i].Bytes))
		}
	}
	rt.stats.cohItemsShipped.Add(all - skipped)
	rt.stats.cohItemsSkipped.Add(skipped)
	rt.stats.cohDeltaItems.Add(deltas)
	rt.stats.cohItemBytes.Add(body)
	return items
}

// ship is deltaShipItems on a folded edge: it filters items in place
// against the index, advancing it, and counts the tokens and final drops,
// the deltas among the rest, and the body bytes shipped.
func (p *cohPeer) ship(items []wire.DataItem, final bool) (out []wire.DataItem, skipped, deltas, body uint64) {
	out = items[:0]
	for _, it := range items {
		v, ok := p.index[it.LP]
		next := v.with(it)
		// The item against the peer's view: a token until given a delta.
		based := wire.DataItem{LP: it.LP, Dirty: it.Dirty, Delta: true, BaseVer: v.ver}
		switch {
		case !ok:
		case bytes.Equal(v.bytes, it.Bytes):
			// Unchanged since the last crossing on this edge: the peer
			// holds exactly these bytes already, so no body travels.
			skipped++
			if final {
				continue
			}
			it = based
		default:
			runs := delta.Diff(v.bytes, it.Bytes, delta.DefaultGap)
			// A delta replaces the opaque body and adds the BaseVer word;
			// compare padded wire costs before committing to it.
			if runs != nil && 4+pad4(delta.EncodedSize(runs)) < pad4(len(it.Bytes)) {
				based.Bytes = delta.Encode(runs)
				it = based
				deltas++
			}
		}
		p.index[it.LP] = next
		body += uint64(len(it.Bytes))
		out = append(out, it)
	}
	return out, skipped, deltas, body
}

func pad4(n int) int { return (n + 3) &^ 3 }

// cohAdmit takes in a coherency-path batch from peer (within session
// sess) and reports whether its items must each go through cohResolve. A
// batch of full items joins the edge's tail, mirroring the sender: every
// item is its own fresh body. A token or delta item names a recorded view,
// so its whole batch resolves through the index.
func (rt *Runtime) cohAdmit(peer uint32, sess uint64, items []wire.DataItem) (resolve bool) {
	resolve = slices.ContainsFunc(items, func(it wire.DataItem) bool { return it.Delta })
	if resolve || rt.noDeltaShip || len(items) == 0 {
		return resolve
	}
	rt.coh.mu.Lock()
	p, _ := rt.coh.edge(peer, sess)
	p.append(items)
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
	p, _ := rt.coh.edge(peer, sess)
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
