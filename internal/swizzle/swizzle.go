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
	"errors"
	"fmt"
	"math/bits"
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

// Entry is one row of the data allocation table. Table 1's page and
// offset are not stored: they are Addr's page (vmem.Space.PageOf) and
// Addr's distance from that page's base, derived where they are read, so
// a row costs 24 bytes.
type Entry struct {
	// LP is the long pointer identifying the original datum.
	LP wire.LongPtr
	// Addr is the swizzled ordinary pointer (page base + offset).
	Addr vmem.VAddr
	// Size is the datum's size under the local architecture.
	Size uint32
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
	// Touched marks a datum that carries a write-back obligation in the
	// current session: this space wrote it, allocated it, or adopted it as
	// a circulating dirty item. Dirty-page tracking alone is too coarse for
	// the modified data set — a page holds several data, and with
	// concurrent sessions over a shared origin, writing back an unmodified
	// neighbor from a dirty page would clobber another client's committed
	// write. The mark dies with the session: Invalidate drops the row,
	// DemoteAll clears it.
	Touched bool
	// HasMemo reports that the row's memo (Tx.Memo) holds the content hash
	// (wire.Sum64) of the canonical encoding of the datum's bytes: recorded
	// by the warm path where it already computed that hash, so a later
	// hashed FETCH offers it instead of encoding the page again. Every
	// change that could make the bytes, or the rows their pointers name,
	// encode otherwise drops it: a fetch-path or coherency-path decode
	// (DropMemo), a Touched mark at DemoteAll, and any row removal, after
	// which Offer ignores every memo until DemoteAll clears them all. It
	// survives a promotion. The hash itself lives in the row store's memo
	// column, which a table that never records one does not allocate.
	HasMemo bool
}

// area is an open protected page area accepting new data from one origin.
type area struct {
	base vmem.VAddr // current page run base
	off  int        // bump offset within the run
	size int        // run size in bytes (0 = no open run)
}

// slot lists one datum under one cache page it covers.
type slot struct {
	// off is the datum's offset within the page; 0 for a datum that starts
	// on an earlier page and continues onto this one.
	off uint32
	row int32
}

// pageRec is the table's record of one cache page: Table 1's rows for the
// page, plus the counts the fault path decides by.
type pageRec struct {
	// slots lists every datum covering the page, in offset order. A datum
	// larger than a page is listed under every page it covers, so a first
	// touch anywhere inside it finds its row. Reservation is a bump
	// allocator over fresh page runs — a datum that spans pages always
	// starts its run — so appending keeps the order without sorting, and a
	// continuing datum is always the page's first slot.
	slots    []slot
	resident int32 // slots whose datum is resident
	stale    int32 // slots whose datum is stale
}

// Table is the data allocation table plus the swizzle/unswizzle indexes
// for one address space. It is safe for concurrent use.
//
// Rows live in an append-only segmented store (rowStore) and are found
// two ways, neither of them a Go map: by cache address through a dense
// per-page record (vmem hands a session's cache pages out in ascending
// order, so the records form a slice indexed by page number from the
// session's first page, the shape of vmem's own page table), and by long
// pointer through an open-addressing table of row indices whose keys are
// compared in the rows themselves. The table sits on both the install path (one swizzle per
// pointer field received) and the fault path, so its constant factors
// dominate the runtime's hot loops. The peak row and page counts are
// remembered across Invalidate and pre-size the next session's storage:
// the peak row count becomes the first segment's size.
type Table struct {
	space  *vmem.Space
	reg    *types.Registry
	res    *types.Resolver
	selfID uint32
	policy AllocPolicy

	mu sync.Mutex
	// rows is the row store; a row never moves, so a lookup hands back a
	// pointer that later inserts leave valid. A removed row is zeroed (a
	// null long pointer marks the tombstone — Swizzle never stores one) and
	// dropped from both indexes; its slot is not reused, matching the rule
	// that a freed cache address is not reused within the session.
	rows rowStore
	live int // rows that are not tombstones
	// index maps a long pointer to its row: linear probing from the hash's
	// top bits over a power-of-two slot array holding row+1, 0 for a free
	// slot and indexDead for a deleted one. It is kept at most half full
	// (dead slots included) and rebuilt from rows when it would exceed that.
	index []int32
	used  int  // slots that are not free
	shift uint // 64 - log2(len(index))
	// next is the row after find's last answer, tried before the index:
	// rows are mostly asked for in the order they were created (find).
	next int32
	// pages[pn-basePN] is the record of cache page pn; basePN is the first
	// page reserved since the last Invalidate.
	pages    []pageRec
	basePN   uint32
	areas    map[uint32]*area
	hint     int // peak row count observed, carried across Invalidate
	pageHint int // peak page count observed, likewise
	// memosVoid records a row removal since the last DemoteAll: a stale
	// row may point at the removed datum, so no memo can be trusted until
	// DemoteAll clears them all. One flag keeps removal O(1).
	memosVoid bool
}

// indexDead marks an index slot whose row was removed or rebound: probes
// continue past it, inserts reuse it.
const indexDead int32 = -1

// New creates a table for space, which has identifier selfID in the
// distributed system. Types are resolved through reg.
func New(space *vmem.Space, reg *types.Registry, selfID uint32, policy AllocPolicy) *Table {
	if policy == 0 {
		policy = PolicyPerOrigin
	}
	return &Table{
		space:  space,
		reg:    reg,
		res:    reg.ResolverFor(space.Profile()),
		selfID: selfID,
		policy: policy,
	}
}

// reset drops the row store, its memo column and both indexes. They are
// re-created lazily by the next insert (ensure), pre-sized to the largest
// population seen so far — a table that is invalidated and never refilled
// (end of the last session) costs nothing. Caller holds t.mu.
func (t *Table) reset() {
	t.hint = max(t.hint, int(t.rows.len()))
	t.pageHint = max(t.pageHint, len(t.pages))
	t.rows, t.live, t.next = rowStore{}, 0, 0
	t.index, t.used = nil, 0
	t.pages = nil
	t.areas = nil
	t.memosVoid = false
}

// ensure materializes the row store and indexes if reset dropped them.
// Lookups on the nil slices behave as misses, so only inserts need this.
func (t *Table) ensure() {
	if t.index != nil {
		return
	}
	t.rows = newRowStore(t.hint)
	t.setIndexSize(max(8, 1<<bits.Len(uint(2*t.hint))))
	t.pages = make([]pageRec, 0, t.pageHint)
	t.areas = make(map[uint32]*area)
}

func (t *Table) setIndexSize(n int) {
	t.index = make([]int32, n)
	t.used = 0
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// probe looks lp up in the index. It returns lp's row, by index and by
// pointer, or -1, nil and the slot an insert of lp should take (the first
// dead slot passed, else the free slot that ended the probe). The index
// must be non-empty.
func (t *Table) probe(lp wire.LongPtr) (row int32, e *Entry, pos int) {
	k := (uint64(lp.Space)<<32 | uint64(lp.Addr)) + uint64(lp.Type)*0x9E3779B1
	mask := len(t.index) - 1
	pos = -1
	for i := int(k * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		switch v := t.index[i]; {
		case v == 0:
			if pos < 0 {
				pos = i
			}
			return -1, nil, pos
		case v == indexDead:
			if pos < 0 {
				pos = i
			}
		default:
			if e := t.rows.at(v - 1); e.LP == lp {
				return v - 1, e, i
			}
		}
	}
}

// find returns lp's row, by index and by pointer, or -1, nil and, when
// there is an index, the slot an insert of lp should take (-1 otherwise).
//
// Rows are mostly asked for in the order they were created: a closure's
// items install in the order their parents' installs swizzled them, and a
// hashed reply answers its offer in (page, offset) order, which bump
// allocation makes creation order too. So the row after the last answer
// is compared first. A tombstone's long pointer is null, so a null lp
// never matches there.
func (t *Table) find(lp wire.LongPtr) (row int32, e *Entry, pos int) {
	if n := t.next; n < t.rows.len() && !lp.IsNull() {
		if e := t.rows.at(n); e.LP == lp {
			t.next = n + 1
			return n, e, -1
		}
	}
	if len(t.index) == 0 {
		return -1, nil, -1
	}
	if row, e, pos = t.probe(lp); row >= 0 {
		t.next = row + 1
	}
	return row, e, pos
}

// indexInsert enters row, already stored in t.rows, under its long
// pointer, which must not be present; pos is the slot a probe for it
// returned.
func (t *Table) indexInsert(row int32, pos int) {
	if 2*(t.used+1) > len(t.index) {
		t.rebuildIndex() // enters every live row, this one included
		return
	}
	if t.index[pos] == 0 {
		t.used++
	}
	t.index[pos] = row + 1
}

// indexDelete removes lp, which must be present.
func (t *Table) indexDelete(lp wire.LongPtr) {
	_, _, pos := t.probe(lp)
	t.index[pos] = indexDead
}

// rebuildIndex re-enters every live row into a fresh slot array, doubled
// unless dead slots are what filled the old one.
func (t *Table) rebuildIndex() {
	n := len(t.index)
	if 4*(t.live+1) > n {
		n *= 2
	}
	t.setIndexSize(n)
	for i := int32(0); i < t.rows.len(); i++ {
		if lp := t.rows.at(i).LP; !lp.IsNull() {
			_, _, pos := t.probe(lp)
			t.index[pos] = i + 1
			t.used++
		}
	}
}

// page returns the record of cache page pn, or nil when the table holds
// nothing there.
func (t *Table) page(pn uint32) *pageRec {
	if i := pn - t.basePN; pn >= t.basePN && i < uint32(len(t.pages)) {
		return &t.pages[i]
	}
	return nil
}

// pagesOf returns the first and the last cache page row e covers.
func (t *Table) pagesOf(e *Entry) (first, last uint32) {
	first = t.space.PageOf(e.Addr)
	if e.Size <= 1 {
		return first, first
	}
	return first, t.space.PageOf(e.Addr + vmem.VAddr(e.Size-1))
}

// rowAt returns the row whose datum starts at cache address addr, by
// index and by pointer, or -1 and nil.
func (t *Table) rowAt(addr vmem.VAddr) (int32, *Entry) {
	pn := t.space.PageOf(addr)
	rec := t.page(pn)
	if rec == nil {
		return -1, nil
	}
	off := uint32(addr) - uint32(t.space.PageBase(pn))
	s := rec.slots
	lo, hi := 0, len(s)
	// A page usually fills with data of one size, so its slots sit at the
	// constant stride its first and last offsets give. The slot that stride
	// points at is taken when it is the binary search's answer too — the
	// first slot at off — and the search runs otherwise.
	if n := len(s); n > 1 && off >= s[0].off {
		if stride := (s[n-1].off - s[0].off) / uint32(n-1); stride > 0 {
			if g := int((off - s[0].off) / stride); g < n && s[g].off == off && (g == 0 || s[g-1].off < off) {
				lo, hi = g, g
			}
		}
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].off < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	// The address comparison rejects a continuing datum's slot, whose
	// nominal offset 0 is not where it starts.
	if lo < len(s) {
		if e := t.rows.at(s[lo].row); e.Addr == addr {
			return s[lo].row, e
		}
	}
	return -1, nil
}

// SelfID returns the owning space's identifier.
func (t *Table) SelfID() uint32 { return t.selfID }

// Row names one table row inside the Tx that returned it.
type Row int32

// Tx is the table held locked for a run of operations. The install path
// swizzles an item, decodes its pointer fields and marks it resident under
// one lock acquisition, and addresses the rows it is working on by handle
// instead of looking them up again. Tx values must not outlive End, and
// nothing done between Begin and End may call a locking Table method.
type Tx struct{ t *Table }

// Begin locks the table until the returned Tx's End.
func (t *Table) Begin() Tx {
	t.mu.Lock()
	return Tx{t}
}

// End unlocks the table.
func (x Tx) End() { x.t.mu.Unlock() }

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
	return t.swizzleAddr(lp, areaKey)
}

// Swizzle is Table.Swizzle inside the transaction.
func (x Tx) Swizzle(lp wire.LongPtr) (vmem.VAddr, bool, error) {
	if lp.IsNull() {
		return vmem.Null, false, nil
	}
	if lp.Space == x.t.selfID {
		return lp.Addr, false, nil
	}
	return x.t.swizzleAddr(lp, lp.Space)
}

// SwizzleRow swizzles a long pointer owned by another space and returns
// its row: the one long-pointer lookup an arriving item costs.
func (x Tx) SwizzleRow(lp wire.LongPtr) (Row, error) {
	if lp.IsNull() || lp.Space == x.t.selfID {
		return -1, fmt.Errorf("swizzle: %v has no table row", lp)
	}
	row, _, _, err := x.t.swizzleRemote(lp, lp.Space)
	return Row(row), err
}

// swizzleAddr is swizzleRemote returning the row's address.
func (t *Table) swizzleAddr(lp wire.LongPtr, areaKey uint32) (vmem.VAddr, bool, error) {
	_, e, fresh, err := t.swizzleRemote(lp, areaKey)
	if err != nil {
		return vmem.Null, false, err
	}
	return e.Addr, fresh, nil
}

// swizzleRemote finds or creates the row for a long pointer into another
// space, and returns it by index and by pointer. Caller holds t.mu.
func (t *Table) swizzleRemote(lp wire.LongPtr, areaKey uint32) (row int32, e *Entry, fresh bool, err error) {
	t.ensure()
	// A miss's probe found the slot the insert takes: nothing below
	// touches the index before it.
	row, e, pos := t.find(lp)
	if row >= 0 {
		return row, e, false, nil
	}
	rv, err := t.res.Resolve(lp.Type)
	if err != nil {
		return -1, nil, false, fmt.Errorf("swizzle %v: %w", lp, err)
	}
	size := rv.Layout.Size
	addr, err := t.reserve(areaKey, size, rv.Layout.Align)
	if err != nil {
		return -1, nil, false, fmt.Errorf("swizzle %v: %w", lp, err)
	}
	row, e = t.rows.push(Entry{LP: lp, Addr: addr, Size: uint32(size)})
	t.live++
	t.indexInsert(row, pos)
	pn, last := t.pagesOf(e)
	if len(t.pages) == 0 {
		t.basePN = pn
	}
	for n := int(last-t.basePN) + 1; len(t.pages) < n; {
		t.pages = append(t.pages, pageRec{})
	}
	for p := pn; p <= last; p++ {
		rec := t.page(p)
		if rec.slots == nil {
			// A page usually fills with data of one type.
			rec.slots = make([]slot, 0, max(4, t.space.PageSize()/max(size, 1)))
		}
		off := uint32(0)
		if p == pn {
			off = uint32(addr) - uint32(t.space.PageBase(pn))
		}
		rec.slots = append(rec.slots, slot{off: off, row: row})
	}
	return row, e, true, nil
}

// reserve carves size bytes out of the keyed open page area, opening a
// fresh protected area when the current one is exhausted.
func (t *Table) reserve(areaKey uint32, size, align int) (vmem.VAddr, error) {
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

// Entry returns row r.
func (x Tx) Entry(r Row) Entry { return *x.t.rows.at(int32(r)) }

// MarkResident records that row r's datum has its bytes installed.
func (x Tx) MarkResident(r Row) { x.t.markResident(int32(r)) }

// MarkResident records that the datum at addr has its bytes installed.
func (t *Table) MarkResident(addr vmem.VAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, _ := t.rowAt(addr); i >= 0 {
		t.markResident(i)
	}
}

// Touch sets the Touched mark of the datum at addr; an address without a
// row (a datum freed meanwhile) is ignored.
func (t *Table) Touch(addr vmem.VAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, e := t.rowAt(addr); e != nil {
		e.Touched = true
	}
}

// Touch sets row r's Touched mark.
func (x Tx) Touch(r Row) { x.t.rows.at(int32(r)).Touched = true }

// SetMemo records sum as the content hash of row r's canonical encoding.
func (x Tx) SetMemo(r Row, sum uint64) {
	x.t.rows.setMemo(int32(r), sum)
	x.t.rows.at(int32(r)).HasMemo = true
}

// Memo returns row r's recorded hash; meaningful only under its HasMemo.
func (x Tx) Memo(r Row) uint64 { return x.t.rows.memo(int32(r)) }

// DropMemo forgets row r's memo: its bytes are about to change.
func (x Tx) DropMemo(r Row) { x.t.rows.at(int32(r)).HasMemo = false }

// OfferedMemo returns the memo a hashed FETCH would offer for the row
// whose datum starts at addr, as Offer reports it: none when there is no
// such row, when it has no memo, or when a removal since the last
// DemoteAll voided every memo.
func (t *Table) OfferedMemo(addr vmem.VAddr) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, e := t.rowAt(addr)
	if e == nil || !e.HasMemo || t.memosVoid {
		return 0, false
	}
	return t.rows.memo(i), true
}

func (t *Table) markResident(i int32) {
	e := t.rows.at(i)
	if e.Resident {
		return
	}
	for p, last := t.pagesOf(e); p <= last; p++ {
		rec := t.page(p)
		rec.resident++
		if e.Stale {
			rec.stale--
		}
	}
	e.Resident, e.Stale = true, false
}

// Remove deletes the table entry for a swizzled address (used when the
// referenced datum is freed: a freed object must not be fetched or written
// back). The cache slot itself is not reused before the session's hard
// invalidation; until then stale ordinary pointers to it keep faulting or
// reading zeroes rather than aliasing new data.
func (t *Table) Remove(addr vmem.VAddr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, _ := t.rowAt(addr)
	if i < 0 {
		return fmt.Errorf("%w: %#x", ErrNotSwizzled, uint32(addr))
	}
	t.remove(i)
	return nil
}

// remove deletes row i from both indexes. The caller holds t.mu.
func (t *Table) remove(i int32) {
	e := t.rows.at(i)
	t.indexDelete(e.LP)
	for p, last := t.pagesOf(e); p <= last; p++ {
		rec := t.page(p)
		for k := range rec.slots {
			if rec.slots[k].row == i {
				rec.slots = append(rec.slots[:k], rec.slots[k+1:]...)
				break
			}
		}
		if e.Resident {
			rec.resident--
		}
		if e.Stale {
			rec.stale--
		}
	}
	*e = Entry{}
	t.live--
	t.memosVoid = true
}

// AllResident reports whether every entry on page pn has been installed.
// A page with no entries is trivially resident.
func (t *Table) AllResident(pn uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Tx{t}.AllResident(pn)
}

// AllResident is Table.AllResident inside the transaction.
func (x Tx) AllResident(pn uint32) bool {
	rec := x.t.page(pn)
	return rec == nil || int(rec.resident) == len(rec.slots)
}

// Seal closes any open area whose current run covers page pn, so that no
// future entry can be placed on a page whose protection has already been
// released (the first access to such an entry could not be detected).
func (t *Table) Seal(pn uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	Tx{t}.Seal(pn)
}

// Seal is Table.Seal inside the transaction.
func (x Tx) Seal(pn uint32) {
	t := x.t
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
	if !t.space.InCache(addr) {
		return wire.LongPtr{Space: t.selfID, Addr: addr, Type: declared}, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Tx{t}.Unswizzle(addr, declared)
}

// Unswizzle is Table.Unswizzle inside the transaction.
func (x Tx) Unswizzle(addr vmem.VAddr, declared types.ID) (wire.LongPtr, error) {
	if addr == vmem.Null {
		return wire.LongPtr{}, nil
	}
	if !x.t.space.InCache(addr) {
		return wire.LongPtr{Space: x.t.selfID, Addr: addr, Type: declared}, nil
	}
	_, e := x.t.rowAt(addr)
	if e == nil {
		return wire.LongPtr{}, fmt.Errorf("%w: %#x", ErrNotSwizzled, uint32(addr))
	}
	return e.LP, nil
}

// LookupAddr returns the table entry for a swizzled address.
func (t *Table) LookupAddr(addr vmem.VAddr) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, e := t.rowAt(addr)
	if e == nil {
		return Entry{}, false
	}
	return *e, true
}

// LookupAddr returns the row for a swizzled address.
func (x Tx) LookupAddr(addr vmem.VAddr) (Row, bool) {
	i, _ := x.t.rowAt(addr)
	return Row(i), i >= 0
}

// LookupLP returns the swizzled address for a long pointer, if present.
func (t *Table) LookupLP(lp wire.LongPtr) (vmem.VAddr, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, e, _ := t.find(lp)
	if e == nil {
		return vmem.Null, false
	}
	return e.Addr, true
}

// LookupLP returns the row for a long pointer, if present.
func (x Tx) LookupLP(lp wire.LongPtr) (Row, bool) {
	i, _, _ := x.t.find(lp)
	return Row(i), i >= 0
}

// PageEntries returns the table rows for one page, ordered by offset:
// everything that must be fetched when the page faults (§3.2: "all of the
// other data allocated to the page must be transferred at this time"). A
// datum continuing from an earlier page comes first.
func (t *Table) PageEntries(pn uint32) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.page(pn)
	if rec == nil || len(rec.slots) == 0 {
		return nil
	}
	out := make([]Entry, len(rec.slots))
	for k, s := range rec.slots {
		out[k] = *t.rows.at(s.row)
	}
	return out
}

// PageOrigins reports which origins a fault on page pn must ask: those of
// its plain wants (rows neither resident nor stale, fetched in full) and
// those of its stale rows (revalidated), each ascending and appended to
// plain and stale, and how many rows the page holds at all. Passing empty
// slices over small arrays lets a fault find its one origin without
// allocating.
func (t *Table) PageOrigins(pn uint32, plain, stale []uint32) ([]uint32, []uint32, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.page(pn)
	if rec == nil {
		return plain, stale, 0
	}
	if int(rec.resident) == len(rec.slots) {
		return plain, stale, len(rec.slots) // nothing is missing
	}
	for _, s := range rec.slots {
		switch e := t.rows.at(s.row); {
		case e.Resident:
		case e.Stale:
			stale = addOrigin(stale, e.LP.Space)
		default:
			plain = addOrigin(plain, e.LP.Space)
		}
	}
	return plain, stale, len(rec.slots)
}

func addOrigin(origins []uint32, o uint32) []uint32 {
	if k, found := slices.BinarySearch(origins, o); !found {
		return slices.Insert(origins, k, o)
	}
	return origins
}

// Offer calls f with the rows a fault on page pn asks origin for, in
// message order. The page's own come first, in offset order: its stale
// rows when stale (the warm fault's hashed FETCH), its plain wants
// otherwise. A plain FETCH asks for nothing more. A hashed one goes on
// with ride-alongs: the stale rows from origin of other pages, in (page,
// offset) order, stopping once their accumulated canonical sizes would
// exceed budget bytes. Each such page is certain to fault on first touch,
// so offering its hashes now trades a guaranteed future round trip for a
// few bytes.
//
// The page records' stale counts find the pages that qualify; rows are
// read only on those, so the cost of a warm fault does not grow with the
// table. While a removal since the last DemoteAll voids the memos, the
// entries f gets carry none (Entry.HasMemo).
func (x Tx) Offer(pn, origin uint32, budget int, stale bool, f func(r Row, e Entry)) {
	t := x.t
	call := func(row int32, e Entry) {
		e.HasMemo = e.HasMemo && !t.memosVoid
		f(Row(row), e)
	}
	if rec := t.page(pn); rec != nil {
		for _, s := range rec.slots {
			if e := t.rows.at(s.row); !e.Resident && e.Stale == stale && e.LP.Space == origin {
				call(s.row, *e)
			}
		}
	}
	if !stale || budget <= 0 {
		return
	}
	left := budget
	for i := range t.pages {
		rec := &t.pages[i]
		p := t.basePN + uint32(i)
		if p == pn || rec.stale == 0 {
			continue
		}
		for _, s := range rec.slots {
			// A row is listed once, under the page it starts on, and never
			// when it covers pn, whose own rows are listed above.
			e := t.rows.at(s.row)
			if e.LP.Space != origin || !e.Stale {
				continue
			}
			if first, last := t.pagesOf(e); first != p || p < pn && pn <= last {
				continue
			}
			// Charge canonical (wire) size, the unit the serving side's
			// closure budget is denominated in.
			size := int(e.Size)
			if rv, err := t.res.Resolve(e.LP.Type); err == nil {
				size = rv.Canon
			}
			if size > left {
				return
			}
			left -= size
			call(s.row, *e)
		}
	}
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
	for i := range t.pages {
		rec := &t.pages[i]
		if int(rec.resident) == len(rec.slots) {
			continue
		}
		for _, s := range rec.slots {
			if e := t.rows.at(s.row); !e.Resident && e.LP.Space == origin {
				pages = append(pages, t.basePN+uint32(i))
				break
			}
		}
		if len(pages) == max {
			break
		}
	}
	return pages
}

// Entries returns every table row, ordered by page then offset. Used by
// diagnostics, the invariant checker and the Table 1 reproduction; hot
// paths that only need to look at each row use Visit.
func (t *Table) Entries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, t.live)
	for i := range t.pages {
		pn := t.basePN + uint32(i)
		for _, s := range t.pages[i].slots {
			if e := t.rows.at(s.row); t.space.PageOf(e.Addr) == pn {
				out = append(out, *e)
			}
		}
	}
	return out
}

// VisitPages calls f once with every row covering any of the given cache
// pages, which must be in ascending order, until f returns false. Rows
// arrive ordered by page then offset, as in Entries; a datum spanning
// several of the pages is visited under the first of them only.
func (x Tx) VisitPages(pages []uint32, f func(Entry) bool) {
	t := x.t
	for k, pn := range pages {
		rec := t.page(pn)
		if rec == nil {
			continue
		}
		for _, s := range rec.slots {
			e := t.rows.at(s.row)
			if first := t.space.PageOf(e.Addr); first < pn && k > 0 && pages[k-1] >= first {
				continue // continues from an earlier page of the set
			}
			if !f(*e) {
				return
			}
		}
	}
}

// Visit calls f with every table row, in insertion order, until f returns
// false. It allocates nothing. The table lock is held throughout, so f
// must not call back into the table.
func (t *Table) Visit(f func(Entry) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := int32(0); i < t.rows.len(); i++ {
		e := t.rows.at(i)
		if e.LP.IsNull() {
			continue // tombstone of a removed row
		}
		if !f(*e) {
			return
		}
	}
}

// Len returns the number of table rows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// Rebind rewrites the long-pointer identity of an existing entry. The
// batched remote-allocation protocol (§3.5) uses it: a provisional long
// pointer issued by extended_malloc is bound to the real address assigned
// by the origin space when the batch is flushed. The swizzled ordinary
// pointer — and therefore every pointer word already stored in local
// memory — is unchanged; only the long-pointer index updates.
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
// indexes drop it), and a local pointer word already swizzled to it
// that the application still dereferences — an application-level
// use-after-free, since the origin freed and reallocated the address —
// reads deterministic poison instead of plausible stale bytes.
func (t *Table) Rebind(old, new wire.LongPtr) (evicted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, e, _ := t.find(old)
	if i < 0 {
		return false, fmt.Errorf("%w: %v", ErrRebindUnknown, old)
	}
	if j, victim, _ := t.find(new); j >= 0 {
		if victim.Resident {
			return false, fmt.Errorf("swizzle: rebind target %v already mapped", new)
		}
		t.poison(j)
		t.remove(j)
		evicted = true
	}
	t.indexDelete(old)
	e.LP = new
	_, _, pos := t.probe(new)
	t.indexInsert(i, pos)
	return evicted, nil
}

// rebindPoison fills the cache slot of a row evicted by Rebind, so a
// dangling dereference of the dead address reads a recognizable pattern
// deterministically instead of whatever stale bytes the slot last held.
const rebindPoison byte = 0xDB

// poison overwrites row i's cache slot with rebindPoison. The caller
// holds t.mu. Best effort via a raw (protection-bypassing) write: the
// slot's page usually still holds other non-resident entries and is
// therefore protected, and a poisoning hiccup must not fail the caller.
func (t *Table) poison(i int32) {
	e := t.rows.at(i)
	if e.Size == 0 {
		return
	}
	buf := make([]byte, e.Size)
	for k := range buf {
		buf[k] = rebindPoison
	}
	_ = t.space.WriteRaw(e.Addr, buf)
}

// Invalidate is the end-of-session hard invalidation (§3.4): the cache
// pages in use retire (vmem.InvalidateCache), every table entry goes and
// all open areas close, under one hold of t.mu. A swizzle meanwhile
// reserves its page before both or after both: vmem hands a new session's
// pages out afresh, from the lowest free run, and the page records are
// indexed from a session's first page, so a recycled page must never land
// in a table still indexed from the old session's.
func (t *Table) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.space.InvalidateCache()
	t.reset()
}

// DemoteAll is the warm-cache alternative to Invalidate: every resident
// row becomes stale (non-resident, bytes kept on the page as the
// revalidation baseline), every Touched mark clears — a surviving one would
// ship the next session's unwritten copy home, or shield it from a
// fetch-path refresh — and all open areas close, so no future entry can
// land on a page whose bytes must stay frozen. Rows that never became
// resident are untouched — they stay plain wants. A touched row loses its
// memo (it was written), and every row does after a removal voided them.
// The caller re-protects the cache pages through vmem.DemoteCache.
func (t *Table) DemoteAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	void := t.memosVoid
	t.memosVoid = false
	for i := int32(0); i < t.rows.len(); i++ {
		e := t.rows.at(i)
		if e.Resident {
			e.Resident = false
			e.Stale = true
		}
		if e.Touched || void {
			e.HasMemo = false
		}
		e.Touched = false
	}
	for i := range t.pages {
		rec := &t.pages[i]
		rec.stale += rec.resident
		rec.resident = 0
	}
	for _, a := range t.areas {
		a.size = 0
		a.off = 0
	}
}

// ClearStale strips the stale mark from the given long pointers, turning
// them back into plain non-resident wants that the next fault fetches in
// full. The revalidation path degrades through it when a hashed FETCH
// fails: correctness never depends on a warm baseline.
func (t *Table) ClearStale(lps []wire.LongPtr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	Tx{t}.ClearStale(lps)
}

// ClearStaleWants is ClearStale over the wants of an encoded FETCH,
// read in place.
func (t *Table) ClearStaleWants(w wire.FetchWants) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range w.Len() {
		t.clearStale(w.At(i))
	}
}

// ClearStale is Table.ClearStale inside the transaction.
func (x Tx) ClearStale(lps []wire.LongPtr) {
	for _, lp := range lps {
		x.t.clearStale(lp)
	}
}

// clearStale strips lp's stale mark, if its row has one. Caller holds mu.
func (t *Table) clearStale(lp wire.LongPtr) {
	_, e, _ := t.find(lp)
	if e == nil || !e.Stale {
		return
	}
	e.Stale = false
	for p, last := t.pagesOf(e); p <= last; p++ {
		t.page(p).stale--
	}
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}
