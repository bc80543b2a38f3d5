// Package swizzle implements pointer swizzling and the data allocation
// table of §3.2 of the paper.
//
// A long pointer arriving from another address space must be translated
// into an ordinary pointer ("swizzled") before the hardware — here, the
// simulated memory of package vmem — can use it. The first time a long
// pointer is seen, the table reserves room for the referenced datum inside
// a protected page area of the cache region and records the triple
// (page number, offset within the page, long pointer): exactly the data
// allocation table in the paper's Table 1. Subsequent swizzles of the same
// long pointer return the same ordinary pointer, and unswizzling reverses
// the mapping when data is marshaled back out.
//
// Placement follows the paper's heuristic (§6): all data allocated to one
// page originates from a single address space, so a page fault can be
// served with one Fetch message. PolicyMixed disables the heuristic to
// reproduce the worst case the paper warns about (an ablation).
package swizzle

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// AllocPolicy selects how cache room is grouped onto pages.
type AllocPolicy int

// Policies.
const (
	// PolicyPerOrigin gives each origin address space its own open page
	// (the paper's heuristic).
	PolicyPerOrigin AllocPolicy = iota + 1
	// PolicyMixed packs objects from all origins onto shared pages
	// (worst-case ablation: one fault can require fetches from many
	// spaces).
	PolicyMixed
)

// Sentinel errors.
var (
	// ErrNotSwizzled is returned when unswizzling an address with no table
	// entry.
	ErrNotSwizzled = errors.New("swizzle: address has no table entry")
	// ErrRebindUnknown is returned when rebinding a long pointer that is
	// not in the table.
	ErrRebindUnknown = errors.New("swizzle: rebind of unknown long pointer")
)

// Entry is one row of the data allocation table.
type Entry struct {
	// Page is the cache page number holding the datum.
	Page uint32
	// Offset is the datum's offset within the page.
	Offset uint32
	// LP is the long pointer identifying the original datum.
	LP wire.LongPtr
	// Addr is the swizzled ordinary pointer (page base + offset).
	Addr vmem.VAddr
	// Size is the datum's size under the local architecture.
	Size int
	// Resident reports whether the datum's bytes have been installed.
	// A page's protection may only be released once every entry on it is
	// resident — otherwise the first access to a neighbor could no longer
	// be detected (§3.2).
	Resident bool
	// Stale marks a warm-cache entry: the datum was resident in an earlier
	// session and its bytes survive on the (re-protected) page as a
	// revalidation baseline. A stale entry is non-resident — touching its
	// page faults — but the fault is served by Validate instead of Fetch.
	Stale bool
}

// area is an open protected page area accepting new data from one origin.
type area struct {
	base vmem.VAddr // current page run base
	off  int        // bump offset within the run
	size int        // run size in bytes (0 = no open run)
}

// Table is the data allocation table plus the swizzle/unswizzle maps for
// one address space. It is safe for concurrent use.
//
// Rows live in one append-only slice; the lookup maps hold indices into
// it. A swizzle therefore costs one slice append and two small-key map
// inserts, and marking a datum resident is a single in-place store — the
// table sits on both the install path (one swizzle per pointer field
// received) and the fault path, so its constant factors dominate the
// runtime's hot loops. The peak row count is remembered across Invalidate
// and used to pre-size the next session's maps, so steady-state sessions
// never pay incremental map growth.
type Table struct {
	space  *vmem.Space
	reg    *types.Registry
	res    *types.Resolver
	selfID uint32
	policy AllocPolicy

	mu   sync.Mutex
	rows []Entry
	// byLP and byAddr map a long pointer / swizzled address to its row's
	// index. Removed rows are deleted from the maps and from byPage and
	// zeroed in rows (a null long pointer marks the tombstone — Swizzle
	// never stores one); their slots are not reused, matching the no-reuse
	// rule for freed cache addresses.
	byLP   map[wire.LongPtr]int32
	byAddr map[vmem.VAddr]int32
	// byPage lists row indices per cache page. Reservation is a bump
	// allocator over fresh page runs, so the per-page lists are naturally
	// in increasing-offset order — the (page, offset) order §3.2's fetch
	// needs — without sorting.
	byPage map[uint32][]int32
	areas  map[uint32]*area
	hint   int // peak row count observed, carried across Invalidate
}

// New creates a table for space, which has identifier selfID in the
// distributed system. Types are resolved through reg.
func New(space *vmem.Space, reg *types.Registry, selfID uint32, policy AllocPolicy) *Table {
	if policy == 0 {
		policy = PolicyPerOrigin
	}
	t := &Table{
		space:  space,
		reg:    reg,
		res:    reg.ResolverFor(space.Profile()),
		selfID: selfID,
		policy: policy,
	}
	t.reset()
	return t
}

// reset drops the row store and maps. They are re-created lazily by the
// next insert (ensureLocked), pre-sized to the largest population seen so
// far — a table that is invalidated and never refilled (end of the last
// session) costs nothing. Caller holds t.mu (or is the constructor).
func (t *Table) reset() {
	if n := len(t.rows); n > t.hint {
		t.hint = n
	}
	t.rows = nil
	t.byLP = nil
	t.byAddr = nil
	t.byPage = nil
	t.areas = nil
}

// ensureLocked materializes the row store and maps if reset dropped them.
// Lookups on the nil maps behave as misses, so only inserts need this.
func (t *Table) ensureLocked() {
	if t.byLP != nil {
		return
	}
	t.rows = make([]Entry, 0, t.hint)
	t.byLP = make(map[wire.LongPtr]int32, t.hint)
	t.byAddr = make(map[vmem.VAddr]int32, t.hint)
	t.byPage = make(map[uint32][]int32, t.hint/4+1)
	t.areas = make(map[uint32]*area)
}

// SelfID returns the owning space's identifier.
func (t *Table) SelfID() uint32 { return t.selfID }

// Swizzle translates a long pointer into an ordinary pointer, reserving a
// protected page area slot on first sight. The returned bool is true when
// the entry is new (no data present yet). Long pointers into the local
// space translate to their plain address.
func (t *Table) Swizzle(lp wire.LongPtr) (vmem.VAddr, bool, error) {
	return t.SwizzleIn(lp, lp.Space)
}

// SwizzleIn is Swizzle with an explicit area key: new entries are placed
// in the page area identified by areaKey instead of the origin's default
// area. The runtime uses a distinct key for objects created locally by
// extended_malloc, whose pages are born resident and writable and must
// therefore never share a page with not-yet-fetched remote data.
func (t *Table) SwizzleIn(lp wire.LongPtr, areaKey uint32) (vmem.VAddr, bool, error) {
	if lp.IsNull() {
		return vmem.Null, false, nil
	}
	if lp.Space == t.selfID {
		return lp.Addr, false, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byLP[lp]; ok {
		return t.rows[i].Addr, false, nil
	}
	t.ensureLocked()
	rv, err := t.res.Resolve(lp.Type)
	if err != nil {
		return vmem.Null, false, fmt.Errorf("swizzle %v: %w", lp, err)
	}
	layout := rv.Layout
	addr, err := t.reserveLocked(areaKey, layout.Size, layout.Align)
	if err != nil {
		return vmem.Null, false, fmt.Errorf("swizzle %v: %w", lp, err)
	}
	pn := t.space.PageOf(addr)
	i := int32(len(t.rows))
	t.rows = append(t.rows, Entry{
		Page:   pn,
		Offset: uint32(addr) - uint32(t.space.PageBase(pn)),
		LP:     lp,
		Addr:   addr,
		Size:   layout.Size,
	})
	t.byLP[lp] = i
	t.byAddr[addr] = i
	t.byPage[pn] = append(t.byPage[pn], i)
	return addr, true, nil
}

// reserveLocked carves size bytes out of the keyed open page area,
// opening a fresh protected area when the current one is exhausted.
func (t *Table) reserveLocked(areaKey uint32, size, align int) (vmem.VAddr, error) {
	key := areaKey
	if t.policy == PolicyMixed {
		// Collapse all origins into one shared area, but keep areas with
		// the provisional flag apart: locally created objects must never
		// share pages with not-yet-fetched data.
		key = areaKey & ProvisionalAreaFlag
	}
	a, ok := t.areas[key]
	if !ok {
		a = &area{}
		t.areas[key] = a
	}
	ps := t.space.PageSize()
	for {
		if a.size > 0 {
			off := alignUp(a.off, align)
			if off+size <= a.size {
				a.off = off + size
				return a.base + vmem.VAddr(off), nil
			}
		}
		pages := (size + ps - 1) / ps
		if pages < 1 {
			pages = 1
		}
		base, err := t.space.AllocCachePages(pages)
		if err != nil {
			return vmem.Null, err
		}
		a.base = base
		a.off = 0
		a.size = pages * ps
	}
}

// ProvisionalAreaFlag, or'ed into a SwizzleIn area key, marks areas for
// locally created (extended_malloc) objects; such areas are never merged
// with fetch-destined areas, even under PolicyMixed.
const ProvisionalAreaFlag uint32 = 0x8000_0000

// MarkResident records that the datum at addr has its bytes installed.
func (t *Table) MarkResident(addr vmem.VAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byAddr[addr]; ok {
		t.rows[i].Resident = true
		t.rows[i].Stale = false
	}
}

// Remove deletes the table entry for a swizzled address (used when the
// referenced datum is freed: a freed object must not be fetched or written
// back). The cache slot itself is not reused; stale ordinary pointers to
// it keep faulting or reading zeroes rather than aliasing new data.
func (t *Table) Remove(addr vmem.VAddr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byAddr[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotSwizzled, uint32(addr))
	}
	t.removeLocked(i)
	return nil
}

// removeLocked deletes row i from every index map. The caller holds t.mu.
func (t *Table) removeLocked(i int32) {
	e := t.rows[i]
	delete(t.byAddr, e.Addr)
	delete(t.byLP, e.LP)
	idxs := t.byPage[e.Page]
	for k, ri := range idxs {
		if ri == i {
			idxs = append(idxs[:k], idxs[k+1:]...)
			break
		}
	}
	if len(idxs) == 0 {
		delete(t.byPage, e.Page)
	} else {
		t.byPage[e.Page] = idxs
	}
	t.rows[i] = Entry{}
}

// AllResident reports whether every entry on page pn has been installed.
// A page with no entries is trivially resident.
func (t *Table) AllResident(pn uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, i := range t.byPage[pn] {
		if !t.rows[i].Resident {
			return false
		}
	}
	return true
}

// Seal closes any open area whose current run covers page pn, so that no
// future entry can be placed on a page whose protection has already been
// released (the first access to such an entry could not be detected).
func (t *Table) Seal(pn uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.areas {
		if a.size == 0 {
			continue
		}
		first := t.space.PageOf(a.base)
		last := t.space.PageOf(a.base + vmem.VAddr(a.size-1))
		if pn >= first && pn <= last {
			a.size = 0
			a.off = 0
		}
	}
}

// Unswizzle translates an ordinary pointer back into a long pointer.
// declared is the pointer field's element type, needed to build long
// pointers for locally owned data (the heap has no per-object table).
func (t *Table) Unswizzle(addr vmem.VAddr, declared types.ID) (wire.LongPtr, error) {
	if addr == vmem.Null {
		return wire.LongPtr{}, nil
	}
	if t.space.InCache(addr) {
		t.mu.Lock()
		i, ok := t.byAddr[addr]
		var lp wire.LongPtr
		if ok {
			lp = t.rows[i].LP
		}
		t.mu.Unlock()
		if !ok {
			return wire.LongPtr{}, fmt.Errorf("%w: %#x", ErrNotSwizzled, uint32(addr))
		}
		return lp, nil
	}
	return wire.LongPtr{Space: t.selfID, Addr: addr, Type: declared}, nil
}

// LookupAddr returns the table entry for a swizzled address.
func (t *Table) LookupAddr(addr vmem.VAddr) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byAddr[addr]
	if !ok {
		return Entry{}, false
	}
	return t.rows[i], true
}

// LookupLP returns the swizzled address for a long pointer, if present.
func (t *Table) LookupLP(lp wire.LongPtr) (vmem.VAddr, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byLP[lp]
	if !ok {
		return vmem.Null, false
	}
	return t.rows[i].Addr, true
}

// PageEntries returns the table rows for one page, ordered by offset:
// everything that must be fetched when the page faults (§3.2: "all of the
// other data allocated to the page must be transferred at this time").
func (t *Table) PageEntries(pn uint32) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	idxs := t.byPage[pn]
	if len(idxs) == 0 {
		return nil
	}
	out := make([]Entry, len(idxs))
	for k, i := range idxs {
		out[k] = t.rows[i]
	}
	return out
}

// OutstandingWants returns the long pointers of non-resident entries
// originating from origin that live on *partially resident* pages other
// than excludePN, in (page, offset) order, stopping once their accumulated
// canonical sizes would exceed budget bytes (a cap bounding per-message
// eagerness). It also reports the bytes selected.
//
// A partially resident page is one where a previous transfer's byte budget
// ran out mid-page: some entries are installed, the rest are not, and the
// page's protection cannot be released until they all are (§3.2). Such a
// page is certain to cost its own FETCH round-trip on first touch, so the
// fetch path piggybacks its remaining wants onto the current faulting
// page's FETCH message instead — one message where the single-want
// protocol needs two. Fully non-resident pages are deliberately excluded:
// prefetching them is speculation that cascades (each install swizzles
// fresh frontier entries), inflating transferred bytes on sparse access
// patterns.
func (t *Table) OutstandingWants(origin uint32, excludePN uint32, budget int) ([]wire.LongPtr, int) {
	if budget <= 0 {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var pages []uint32
	for pn, idxs := range t.byPage {
		if pn == excludePN {
			continue
		}
		missing, resident := false, false
		for _, i := range idxs {
			if t.rows[i].Resident {
				resident = true
			} else if t.rows[i].LP.Space == origin {
				missing = true
			}
		}
		if missing && resident {
			pages = append(pages, pn)
		}
	}
	if len(pages) == 0 {
		return nil, 0
	}
	slices.Sort(pages)
	var out []wire.LongPtr
	left := budget
	for _, pn := range pages {
		for _, i := range t.byPage[pn] {
			e := &t.rows[i]
			if e.Resident || e.LP.Space != origin {
				continue
			}
			// Charge canonical (wire) size, the unit the serving side's
			// closure budget is denominated in, so a batched FETCH never
			// ships more bytes than a single-want one.
			size := e.Size
			if rv, err := t.res.Resolve(e.LP.Type); err == nil {
				size = rv.Canon
			}
			if size > left {
				return out, budget - left
			}
			left -= size
			out = append(out, e.LP)
		}
	}
	return out, budget - left
}

// PrefetchCandidates returns up to max page numbers, ascending, of pages
// holding at least one non-resident entry originating from origin: the
// speculative prefetcher's prediction set. Such entries were swizzled in
// by installs of data the application IS using — in pointer-graph terms
// each candidate page is one hop ahead of the resident working set — and
// ascending page order approximates the closure traversal's frontier
// order. Both fully cold pages and partially resident ones qualify: a
// closure shipment routinely strands its tail object on a fresh page, so
// the chase's very next page usually already has one resident entry.
// Pages whose non-resident entries are stale are included too: a
// prefetched stale page revalidates first like any other (completePage),
// it is never blind-fetched. Fully resident pages never qualify, so a
// page is predicted at most until its protection is released.
func (t *Table) PrefetchCandidates(origin uint32, max int) []uint32 {
	if max <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var pages []uint32
	for pn, idxs := range t.byPage {
		for _, i := range idxs {
			if !t.rows[i].Resident && t.rows[i].LP.Space == origin {
				pages = append(pages, pn)
				break
			}
		}
	}
	slices.Sort(pages)
	if len(pages) > max {
		pages = pages[:max]
	}
	return pages
}

// Entries returns every table row, ordered by page then offset. Used by
// diagnostics, the invariant checker and the Table 1 reproduction; hot
// paths that only need to look at each row use Visit.
func (t *Table) Entries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, len(t.byAddr))
	for i := range t.rows {
		if !t.rows[i].LP.IsNull() {
			out = append(out, t.rows[i])
		}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(a.Page, b.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.Offset, b.Offset)
	})
	return out
}

// Visit calls f with every table row, in insertion order, until f returns
// false. It allocates nothing. The table lock is held throughout, so f
// must not call back into the table.
func (t *Table) Visit(f func(Entry) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rows {
		if t.rows[i].LP.IsNull() {
			continue // tombstone of a removed row
		}
		if !f(t.rows[i]) {
			return
		}
	}
}

// Len returns the number of table rows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byAddr)
}

// Rebind rewrites the long-pointer identity of an existing entry. The
// batched remote-allocation protocol (§3.5) uses it: a provisional long
// pointer issued by extended_malloc is bound to the real address assigned
// by the origin space when the batch is flushed. The swizzled ordinary
// pointer — and therefore every pointer word already stored in local
// memory — is unchanged; only the identity maps update.
//
// The origin assigning an address proves no live datum exists there, so a
// leftover non-resident row under the target identity — a stale
// warm-cache baseline or a plain want surviving from before the origin
// freed (or crash-reset) and reallocated that address — is evicted and
// the fresh allocation takes over the identity. A RESIDENT collision is
// still an error: bytes installed this session claim the identity is
// live, and two live datums cannot share one long pointer.
//
// The eviction is reported (evicted=true) so the runtime can count and
// trace it, and the dead row's cache slot is overwritten with the
// rebindPoison pattern: the slot's address can no longer unswizzle (the
// identity maps drop it), and a local pointer word already swizzled to it
// that the application still dereferences — an application-level
// use-after-free, since the origin freed and reallocated the address —
// reads deterministic poison instead of plausible stale bytes.
func (t *Table) Rebind(old, new wire.LongPtr) (evicted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byLP[old]
	if !ok {
		return false, fmt.Errorf("%w: %v", ErrRebindUnknown, old)
	}
	if j, exists := t.byLP[new]; exists {
		if t.rows[j].Resident {
			return false, fmt.Errorf("swizzle: rebind target %v already mapped", new)
		}
		t.poisonLocked(j)
		t.removeLocked(j)
		evicted = true
	}
	delete(t.byLP, old)
	t.byLP[new] = i
	t.rows[i].LP = new
	return evicted, nil
}

// rebindPoison fills the cache slot of a row evicted by Rebind, so a
// dangling dereference of the dead address reads a recognizable pattern
// deterministically instead of whatever stale bytes the slot last held.
const rebindPoison byte = 0xDB

// poisonLocked overwrites row i's cache slot with rebindPoison. The
// caller holds t.mu. Best effort via a raw (protection-bypassing) write:
// the slot's page usually still holds other non-resident entries and is
// therefore protected, and a poisoning hiccup must not fail the caller.
func (t *Table) poisonLocked(i int32) {
	e := t.rows[i]
	if e.Size <= 0 {
		return
	}
	buf := make([]byte, e.Size)
	for k := range buf {
		buf[k] = rebindPoison
	}
	_ = t.space.WriteRaw(e.Addr, buf)
}

// Invalidate drops every table entry and closes all open areas, matching
// the end-of-session invalidation (§3.4). The underlying cache pages are
// invalidated by the caller through vmem.
func (t *Table) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reset()
}

// DemoteAll is the warm-cache alternative to Invalidate: every resident
// row becomes stale (non-resident, bytes kept on the page as the
// revalidation baseline) and all open areas close, so no future entry can
// land on a page whose bytes must stay frozen. Rows that never became
// resident are untouched — they stay plain wants. The caller re-protects
// the cache pages through vmem.DemoteCache.
func (t *Table) DemoteAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rows {
		if t.rows[i].Resident {
			t.rows[i].Resident = false
			t.rows[i].Stale = true
		}
	}
	for _, a := range t.areas {
		a.size = 0
		a.off = 0
	}
}

// ClearStale strips the stale mark from the given long pointers, turning
// them back into plain non-resident wants that the next fault fetches in
// full. The revalidation path degrades through it when a Validate exchange
// fails: correctness never depends on a warm baseline.
func (t *Table) ClearStale(lps []wire.LongPtr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, lp := range lps {
		if i, ok := t.byLP[lp]; ok {
			t.rows[i].Stale = false
		}
	}
}

// StaleWants returns the long pointers of stale entries originating from
// origin on pages other than excludePN, in (page, offset) order, stopping
// once their accumulated canonical sizes would exceed budget bytes. It
// mirrors OutstandingWants for the revalidation path: every selected
// entry's page is certain to fault on first touch, so offering its tuple
// on the current Validate message trades a guaranteed future round-trip
// for a few tuple bytes now.
func (t *Table) StaleWants(origin uint32, excludePN uint32, budget int) ([]wire.LongPtr, int) {
	if budget <= 0 {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var pages []uint32
	for pn, idxs := range t.byPage {
		if pn == excludePN {
			continue
		}
		for _, i := range idxs {
			if t.rows[i].Stale && t.rows[i].LP.Space == origin {
				pages = append(pages, pn)
				break
			}
		}
	}
	if len(pages) == 0 {
		return nil, 0
	}
	slices.Sort(pages)
	var out []wire.LongPtr
	left := budget
	for _, pn := range pages {
		for _, i := range t.byPage[pn] {
			e := &t.rows[i]
			if !e.Stale || e.LP.Space != origin {
				continue
			}
			size := e.Size
			if rv, err := t.res.Resolve(e.LP.Type); err == nil {
				size = rv.Canon
			}
			if size > left {
				return out, budget - left
			}
			left -= size
			out = append(out, e.LP)
		}
	}
	return out, budget - left
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}
