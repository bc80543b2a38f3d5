package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// This file implements the coherency invariant checker: executable
// statements of what the protocol promises about runtime state. The
// paper's correctness argument rests on the modified data set hopping
// with the single thread of control (§3.4) and on the data allocation
// table mirroring the protected page areas exactly (§3.2); delta
// shipping (cohstate.go) adds per-edge baseline/version lockstep on top.
// A lost, duplicated, reordered, or corrupted frame that slipped past
// the protocol's defenses would violate one of these statements long
// before it produced a visibly wrong answer, so the chaos harness
// (internal/faultsim) runs them after every boundary crossing and at
// every quiescent point.
//
// Three granularities:
//
//   - CheckLocalInvariants: one runtime, any time it is not mid-install.
//     Table↔vmem agreement, the page release rule, dirty-bit sanity, no
//     dangling swizzled pointers, modified-set ownership.
//   - CheckIdleInvariants: one runtime whose cache should be empty
//     (after EndSession, AbortSession, or a received invalidation).
//   - CheckNetworkInvariants: a whole network at a quiescent point (no
//     messages in flight): every local check, single-dirty-owner (only
//     the thread-holding space may hold unshipped modifications), and
//     pairwise delta-shipping lockstep.

// ErrInvariant is the sentinel wrapped by every invariant violation.
// Match with errors.Is.
var ErrInvariant = errors.New("core: coherency invariant violated")

func invariantErr(space uint32, format string, args ...any) error {
	return fmt.Errorf("%w: space %d: %s", ErrInvariant, space, fmt.Sprintf(format, args...))
}

// CheckLocalInvariants verifies every invariant observable from this
// runtime alone. It is safe to call whenever the runtime is not in the
// middle of installing or collecting a transfer (the protocol's single
// active thread guarantees that at boundary crossings and at quiescent
// points).
func (rt *Runtime) CheckLocalInvariants() error {
	entries := rt.table.Entries()

	// Invariant 1 — table bijection: the long-pointer and address maps
	// agree with the rows, and every row's address lies in the cache
	// region on mapped pages that are in use. A row on a page vmem retired
	// at a hard invalidation would alias whatever the page holds once it
	// is handed out again.
	for _, e := range entries {
		if a, ok := rt.table.LookupLP(e.LP); !ok || a != e.Addr {
			return invariantErr(rt.id, "table row %v -> %#x not found by long pointer (got %#x, %v)",
				e.LP, uint32(e.Addr), uint32(a), ok)
		}
		if row, ok := rt.table.LookupAddr(e.Addr); !ok || row.LP != e.LP {
			return invariantErr(rt.id, "table row %v at %#x not found by address", e.LP, uint32(e.Addr))
		}
		if !rt.space.InCache(e.Addr) {
			return invariantErr(rt.id, "table row %v at %#x outside the cache region", e.LP, uint32(e.Addr))
		}
		first := rt.space.PageOf(e.Addr)
		last := rt.space.PageOf(e.Addr + vmem.VAddr(e.Size-1))
		for pn := first; pn <= last; pn++ {
			if _, err := rt.space.ProtOf(pn); err != nil {
				return invariantErr(rt.id, "table row %v spans unmapped page %d: %v", e.LP, pn, err)
			}
			if !rt.space.CacheInUse(pn) {
				return invariantErr(rt.id, "table row %v on retired cache page %d would alias", e.LP, pn)
			}
		}
	}

	// Invariant 2 — release rule (§3.2): once a page's protection has
	// been released, every datum overlapping it must be resident;
	// otherwise a first access to the missing datum would go undetected
	// and read zeroes.
	for _, e := range entries {
		if e.Resident {
			continue
		}
		first := rt.space.PageOf(e.Addr)
		last := rt.space.PageOf(e.Addr + vmem.VAddr(e.Size-1))
		for pn := first; pn <= last; pn++ {
			prot, err := rt.space.ProtOf(pn)
			if err != nil {
				return invariantErr(rt.id, "page %d of %v: %v", pn, e.LP, err)
			}
			if prot != vmem.ProtNone {
				return invariantErr(rt.id, "page %d released (%v) with non-resident datum %v on it",
					pn, prot, e.LP)
			}
		}
	}

	// Invariant 3 — dirty-bit sanity: the dirty bit marks a page holding
	// members of the circulating modified data set, so it may coexist
	// with any protection level (read-only when a circulating item was
	// installed on an already-released page, fully protected when it
	// landed on a partially resident one). What must hold is that every
	// dirty page is a live, mapped cache page — a dirty bit on an
	// unmapped page is modification tracking that survived a teardown.
	for _, pn := range rt.space.DirtyPages(nil) {
		if _, err := rt.space.ProtOf(pn); err != nil {
			return invariantErr(rt.id, "dirty page %d: %v", pn, err)
		}
	}

	// Invariant 4 — no dangling swizzled pointers: every pointer word
	// inside a resident cached object must be null, point into the local
	// heap, or have its own data allocation table row. A pointer word
	// satisfying none of these is an address that was never swizzled —
	// a decode applied against the wrong baseline, or corruption.
	for _, e := range entries {
		if !e.Resident {
			continue
		}
		rv, err := rt.res.Resolve(e.LP.Type)
		if err != nil {
			return invariantErr(rt.id, "table row %v has unresolvable type: %v", e.LP, err)
		}
		for _, off := range rv.Layout.PtrOffsets {
			pv, err := rt.space.ReadPtrRaw(e.Addr + vmem.VAddr(off))
			if err != nil {
				return invariantErr(rt.id, "read pointer word of %v at +%d: %v", e.LP, off, err)
			}
			if pv == vmem.Null {
				continue
			}
			if rt.space.InHeap(pv) {
				continue
			}
			if _, ok := rt.table.LookupAddr(pv); !ok {
				return invariantErr(rt.id, "datum %v holds dangling pointer %#x (no table row, not heap)",
					e.LP, uint32(pv))
			}
		}
	}

	// Invariant 5 — modified-set ownership: the session-modified set
	// holds only locally owned data (it is the origin's duty to keep
	// modifications circulating, §3.4).
	rt.modMu.Lock()
	defer rt.modMu.Unlock()
	for _, set := range rt.sessionModified {
		if i := slices.IndexFunc(set, func(lp wire.LongPtr) bool { return lp.Space != rt.id }); i >= 0 {
			return invariantErr(rt.id, "session-modified set holds foreign datum %v", set[i])
		}
	}
	return nil
}

// CheckIdleInvariants verifies that this runtime's cache is fully torn
// down: no resident data allocation table rows (stale warm-cache rows
// may remain, but every page they span must still be protected and
// still encode — the page is the revalidation baseline — to the memo a
// hashed FETCH would offer for it), no dirty pages, no delta-shipping
// state, and no batched allocation work.
// This is the state every space must reach after EndSession,
// AbortSession, or a received end-of-session invalidation — whatever
// faults occurred during the session.
func (rt *Runtime) CheckIdleInvariants() error {
	if err := rt.CheckLocalInvariants(); err != nil {
		return err
	}
	// Idle cache rule: nothing resident. With the warm cache disabled the
	// table must be empty outright (the seed invariant); with it enabled,
	// demotion leaves stale rows whose pages the release rule (local
	// invariant 2) already forces to ProtNone.
	for _, e := range rt.table.Entries() {
		if e.Resident {
			return invariantErr(rt.id, "idle with resident datum %v", e.LP)
		}
		if !e.Stale {
			continue
		}
		if !rt.warmEnabled() {
			return invariantErr(rt.id, "stale datum %v with the warm cache disabled", e.LP)
		}
		// Baseline availability: the revalidation baseline is derived from
		// the page when a hashed FETCH is built, so the page must still encode.
		// The one legal exception is a pointer to a datum freed since (its
		// row is gone): that offer degrades to a refetch.
		enc, err := rt.encodeStale(e)
		if err != nil && !errors.Is(err, swizzle.ErrNotSwizzled) {
			return invariantErr(rt.id, "stale datum %v cannot be encoded from its page: %v", e.LP, err)
		}
		// Memo soundness: a memo the next offer would send in place of an
		// encode is the hash of what the page encodes to.
		if memo, ok := rt.table.OfferedMemo(e); ok && (err != nil || wire.Sum64(enc) != memo) {
			return invariantErr(rt.id, "stale datum %v offers memo %#x, but its page encodes to %#x (%v)", e.LP, memo, wire.Sum64(enc), err)
		}
	}
	if !rt.warmEnabled() {
		if n := rt.table.Len(); n != 0 {
			return invariantErr(rt.id, "idle with %d data allocation table rows", n)
		}
	}
	if pages := rt.space.DirtyPages(nil); len(pages) != 0 {
		return invariantErr(rt.id, "idle with dirty pages %v", pages)
	}
	rt.coh.mu.Lock()
	var cohDetail string
	for peer, p := range rt.coh.peers {
		cohDetail += fmt.Sprintf(" peer %d sess %#x: %d views, %d logged", peer, p.sess, len(p.index), p.logged)
	}
	rt.coh.mu.Unlock()
	if cohDetail != "" {
		return invariantErr(rt.id, "idle with delta-shipping state:%s", cohDetail)
	}
	if n := rt.PendingAllocOps(); n != 0 {
		return invariantErr(rt.id, "idle with %d batched allocation operations", n)
	}
	rt.modMu.Lock()
	mods := 0
	for _, set := range rt.sessionModified {
		mods += len(set)
	}
	rt.modMu.Unlock()
	if mods != 0 {
		return invariantErr(rt.id, "idle with %d session-modified entries", mods)
	}
	return nil
}

// encodeStale derives a stale row's revalidation baseline the way
// offer does for a hashed FETCH: the canonical encoding of its page
// bytes.
func (rt *Runtime) encodeStale(e swizzle.Entry) ([]byte, error) {
	rv, err := rt.res.Resolve(e.LP.Type)
	if err != nil {
		return nil, err
	}
	return encodeObject(rt.space, rt.table, rv, e.Addr)
}

// CheckCohLockstep verifies delta-shipping baseline/version lockstep on
// the edge between two runtimes: both sides must hold identical crossing
// versions and byte-identical baselines for every datum exchanged on the
// edge. It is only meaningful at a quiescent point with no messages in
// flight on the edge; a lost frame legitimately desynchronizes the edge
// until the protocol detects it on the next crossing.
func CheckCohLockstep(a, b *Runtime) error {
	// Lock both ship states in ID order so concurrent checks of (a,b)
	// and (b,a) cannot deadlock.
	lo, hi := a, b
	if lo.id > hi.id {
		lo, hi = hi, lo
	}
	lo.coh.mu.Lock()
	defer lo.coh.mu.Unlock()
	hi.coh.mu.Lock()
	defer hi.coh.mu.Unlock()

	// Fold both ends first: a tail holds crossings no lookup has needed yet.
	var av, bv map[wire.LongPtr]cohView
	ap, bp := a.coh.peers[b.id], b.coh.peers[a.id]
	if ap != nil {
		ap.fold()
		av = ap.index
	}
	if bp != nil {
		bp.fold()
		bv = bp.index
	}
	if ap != nil && bp != nil && ap.sess != bp.sess {
		return invariantErr(a.id, "edge %d<->%d: ship state session split: %#x on space %d vs %#x on space %d",
			a.id, b.id, ap.sess, a.id, bp.sess, b.id)
	}
	for lp, view := range av {
		peer, ok := bv[lp]
		if !ok {
			return invariantErr(a.id, "edge %d<->%d: datum %v has ship state only on space %d (ver %d)",
				a.id, b.id, lp, a.id, view.ver)
		}
		if view.ver != peer.ver {
			return invariantErr(a.id, "edge %d<->%d: datum %v version split: %d on space %d vs %d on space %d",
				a.id, b.id, lp, view.ver, a.id, peer.ver, b.id)
		}
		if !bytes.Equal(view.bytes, peer.bytes) {
			return invariantErr(a.id, "edge %d<->%d: datum %v baselines differ at version %d",
				a.id, b.id, lp, view.ver)
		}
	}
	for lp, view := range bv {
		if _, ok := av[lp]; !ok {
			return invariantErr(b.id, "edge %d<->%d: datum %v has ship state only on space %d (ver %d)",
				a.id, b.id, lp, b.id, view.ver)
		}
	}
	return nil
}

// CheckNetworkInvariants verifies the cross-space coherency invariants
// over a whole network at a quiescent point: the thread of control rests
// on ground (nil when no session is active) and no messages are in
// flight.
//
//   - Every runtime's local invariants hold.
//   - Single dirty owner: the modified data set travels with the thread
//     of control (§3.4), so only the ground runtime may hold dirty cache
//     pages; every other space shipped its modifications out when the
//     thread left it.
//   - Delta-shipping lockstep holds on every edge.
//   - Warm revalidation soundness: no stale warm-cache copy could be
//     token-promoted into bytes differing from its origin's current
//     committed value.
func CheckNetworkInvariants(ground *Runtime, all []*Runtime) error {
	for _, rt := range all {
		if err := rt.CheckLocalInvariants(); err != nil {
			return err
		}
		if rt != ground {
			if pages := rt.space.DirtyPages(nil); len(pages) != 0 {
				return invariantErr(rt.id,
					"dirty pages %v on a space not holding the thread of control", pages)
			}
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if err := CheckCohLockstep(all[i], all[j]); err != nil {
				return err
			}
		}
	}
	byID := make(map[uint32]*Runtime, len(all))
	for _, rt := range all {
		byID[rt.id] = rt
	}
	for _, rt := range all {
		for _, e := range rt.table.Entries() {
			if !e.Stale {
				continue
			}
			origin := byID[e.LP.Space]
			if origin == nil {
				continue // origin outside the checked set
			}
			mine, err := rt.encodeStale(e)
			offered, memo := rt.table.OfferedMemo(e)
			switch {
			case err != nil && memo:
				return invariantErr(rt.id, "stale datum %v offers memo %#x, but its page does not encode: %v", e.LP, offered, err)
			case err != nil:
				continue // unencodable; revalidation will degrade
			case !memo:
				offered = wire.Sum64(mine)
			}
			rv, err := origin.res.Resolve(e.LP.Type)
			if err != nil {
				continue // origin cannot serve it; revalidation will degrade
			}
			cur, err := encodeObject(origin.space, origin.table, rv, e.LP.Addr)
			if err != nil {
				continue // freed at origin; revalidation will degrade
			}
			// The warm copy may legitimately lag the origin (that is what
			// revalidation is for). What must NEVER hold is a token match —
			// origin's current hash equal to the one this space would
			// offer, its memo when it has one — against differing bytes:
			// that token would promote a copy older than the origin's
			// committed version.
			if wire.Sum64(cur) == offered && !bytes.Equal(cur, mine) {
				return invariantErr(rt.id,
					"warm copy of %v would token-promote bytes differing from the origin's committed value", e.LP)
			}
		}
	}
	return nil
}
