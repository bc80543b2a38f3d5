package swizzle

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// refTable is the reference the property test holds the table to: the
// rows in a Go map, and every query answered by scanning all of them. It
// knows nothing of placement — addresses are copied from the table under
// test and checked for soundness as they appear.
type refTable struct {
	sp   *vmem.Space
	res  *types.Resolver
	rows map[vmem.VAddr]*Entry
	byLP map[wire.LongPtr]vmem.VAddr
	// areaOf remembers which area key each page was first used for, to
	// check that placement never mixes keys on a page it should not.
	areaOf map[uint32]uint32
	// taken is every byte range handed out since the last Invalidate,
	// live or removed; retired holds the ranges of the Quarantine sessions
	// ended before it, oldest first. vmem hands a retired page out again
	// only after Quarantine more invalidations, so no new row overlaps
	// either.
	taken   []Entry
	retired [][]Entry
	// closed holds pages no new row may land on (sealed or demoted).
	closed map[uint32]bool
	// memos holds each row's memo by address: the last hash recorded for
	// it this session, zero for none. A dropped memo keeps its hash, as the
	// table's column does; HasMemo says whether it counts.
	memos map[vmem.VAddr]uint64
	// memosVoid: a row was removed since the last DemoteAll, so no memo is
	// offered.
	memosVoid bool
	// snap is the last snapshot: the rows in address order, filed by
	// page, and the pages.
	snap struct {
		rows   []*Entry
		byPage map[uint32][]*Entry
		pages  []uint32
	}
}

func newRefTable(sp *vmem.Space, res *types.Resolver) *refTable {
	return &refTable{
		sp: sp, res: res,
		rows:   map[vmem.VAddr]*Entry{},
		byLP:   map[wire.LongPtr]vmem.VAddr{},
		memos:  map[vmem.VAddr]uint64{},
		areaOf: map[uint32]uint32{},
		closed: map[uint32]bool{},
	}
}

func (r *refTable) reset() {
	clear(r.rows)
	clear(r.byLP)
	clear(r.memos)
	r.memosVoid = false
}

// invalidate models Table.Invalidate: the rows go, this session's room
// enters the quarantine, and the room that entered it Quarantine
// invalidations ago is free again, its pages open to any area.
func (r *refTable) invalidate() {
	r.reset()
	r.retired = append(r.retired, r.taken)
	r.taken = nil
	if len(r.retired) <= vmem.Quarantine {
		return
	}
	for _, e := range r.retired[0] {
		for first, last := r.pagesOf(&e); first <= last; first++ {
			delete(r.closed, first)
			delete(r.areaOf, first)
		}
	}
	r.retired = r.retired[1:]
}

func (r *refTable) pagesOf(e *Entry) (first, last uint32) {
	return r.sp.PageOf(e.Addr), r.sp.PageOf(e.Addr + vmem.VAddr(max(e.Size, 1)-1))
}

// sorted returns the rows ordered by address, which is (page, offset) order.
func (r *refTable) sorted() []*Entry {
	out := make([]*Entry, 0, len(r.rows))
	for _, e := range r.rows {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// snapshot files the rows under the pages they cover, for onPage and
// pages. compare takes one before its queries, which change no row, so a
// query costs a lookup rather than a pass over every row.
func (r *refTable) snapshot() {
	r.snap.rows = r.sorted()
	r.snap.byPage = map[uint32][]*Entry{}
	for _, e := range r.snap.rows {
		for first, last := r.pagesOf(e); first <= last; first++ {
			r.snap.byPage[first] = append(r.snap.byPage[first], e)
		}
	}
	r.snap.pages = r.snap.pages[:0]
	for pn := range r.snap.byPage {
		r.snap.pages = append(r.snap.pages, pn)
	}
	slices.Sort(r.snap.pages)
}

// onPage returns the rows covering page pn, in offset order, as of the
// last snapshot.
func (r *refTable) onPage(pn uint32) []*Entry { return r.snap.byPage[pn] }

// pages returns the pages some row covers, ascending, as of the last
// snapshot.
func (r *refTable) pages() []uint32 { return r.snap.pages }

// wants is the specification of Offer's ride-alongs: a hashed (stale)
// FETCH carries the stale rows of other pages, a plain one none.
func (r *refTable) wants(origin, excludePN uint32, budget int, stale bool) []wire.LongPtr {
	if !stale || budget <= 0 {
		return nil
	}
	var out []wire.LongPtr
	left := budget
	for _, pn := range r.pages() {
		if pn == excludePN {
			continue
		}
		for _, e := range r.onPage(pn) {
			first, last := r.pagesOf(e)
			if first != pn || first <= excludePN && excludePN <= last {
				continue
			}
			if e.LP.Space != origin || !e.Stale {
				continue
			}
			rv, err := r.res.Resolve(e.LP.Type)
			if err != nil {
				panic(err)
			}
			if rv.Canon > left {
				return out
			}
			left -= rv.Canon
			out = append(out, e.LP)
		}
	}
	return out
}

func (r *refTable) prefetchCandidates(origin uint32, max int) []uint32 {
	var out []uint32
	for _, pn := range r.pages() {
		for _, e := range r.onPage(pn) {
			if !e.Resident && e.LP.Space == origin {
				out = append(out, pn)
				break
			}
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// admit records a freshly placed row, checking the placement rules.
func (r *refTable) admit(t *testing.T, e Entry, areaKey uint32, policy AllocPolicy) {
	t.Helper()
	rv, err := r.res.Resolve(e.LP.Type)
	if err != nil {
		t.Fatal(err)
	}
	if int(e.Size) != rv.Layout.Size || int(e.Addr)%rv.Layout.Align != 0 {
		t.Fatalf("row %+v: size/alignment differ from layout %d/%d", e, rv.Layout.Size, rv.Layout.Align)
	}
	for _, room := range append(r.retired, r.taken) {
		for _, o := range room {
			if e.Addr < o.Addr+vmem.VAddr(o.Size) && o.Addr < e.Addr+vmem.VAddr(e.Size) {
				t.Fatalf("row %+v overlaps cache room given to %+v, not yet free", e, o)
			}
		}
	}
	r.taken = append(r.taken, e)
	if policy == PolicyMixed {
		areaKey &= ProvisionalAreaFlag
	}
	for first, last := r.pagesOf(&e); first <= last; first++ {
		if r.closed[first] {
			t.Fatalf("row %+v placed on closed page %d", e, first)
		}
		if k, ok := r.areaOf[first]; ok && k != areaKey {
			t.Fatalf("row %+v (area %#x) placed on page %d of area %#x", e, areaKey, first, k)
		}
		r.areaOf[first] = areaKey
	}
	r.rows[e.Addr] = &e
	r.byLP[e.LP] = e.Addr
}

// compare checks every read-only query of tb against the reference.
func (r *refTable) compare(t *testing.T, tb *Table, rng *rand.Rand) {
	t.Helper()
	r.snapshot()
	var want []Entry
	for _, e := range r.snap.rows {
		want = append(want, *e)
	}
	if got := tb.Entries(); !slices.Equal(got, want) {
		t.Fatalf("Entries() = %v\nwant %v", got, want)
	}
	if tb.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", tb.Len(), len(want))
	}
	var visited []Entry
	tb.Visit(func(e Entry) bool { visited = append(visited, e); return true })
	slices.SortFunc(visited, func(a, b Entry) int { return cmp.Compare(a.Addr, b.Addr) })
	if !slices.Equal(visited, want) {
		t.Fatalf("Visit saw %v\nwant %v", visited, want)
	}
	// The page records' counts are what the fault path decides by.
	for i := range tb.pages {
		rec := &tb.pages[i]
		var resident, stale int32
		for _, s := range rec.slots {
			if tb.rows.at(s.row).Resident {
				resident++
			}
			if tb.rows.at(s.row).Stale {
				stale++
			}
		}
		if rec.resident != resident || rec.stale != stale {
			t.Fatalf("page %d counts resident=%d stale=%d, its rows say %d and %d",
				tb.basePN+uint32(i), rec.resident, rec.stale, resident, stale)
		}
	}
	// Table 1's page and offset: each page record lists exactly the
	// reference's rows covering the page, in offset order, each under the
	// offset its address derives on the page it starts on and under 0 on
	// the pages it continues onto.
	for i := range tb.pages {
		pn := tb.basePN + uint32(i)
		rows, slots := r.onPage(pn), tb.pages[i].slots
		if len(slots) != len(rows) {
			t.Fatalf("page %d lists %d rows, the reference places %d there", pn, len(slots), len(rows))
		}
		for k, sl := range slots {
			e := rows[k]
			off := uint32(0)
			if first, _ := r.pagesOf(e); first == pn {
				off = uint32(e.Addr - r.sp.PageBase(pn))
			}
			if got := tb.rows.at(sl.row); got.Addr != e.Addr || sl.off != off {
				t.Fatalf("page %d slot %d holds %#x at offset %d; the reference places %#x at offset %d",
					pn, k, uint32(got.Addr), sl.off, uint32(e.Addr), off)
			}
		}
	}
	pages := r.pages()
	for _, pn := range pages {
		if tb.page(pn) == nil {
			t.Fatalf("page %d holds reference rows but has no record", pn)
		}
	}
	// Probe one page past each end too: nothing lives there.
	probes := pages
	if len(pages) > 0 {
		probes = append([]uint32{pages[0] - 1}, append(slices.Clone(pages), pages[len(pages)-1]+1)...)
	}
	tx := tb.Begin()
	for _, pn := range probes {
		all := true
		for _, e := range r.onPage(pn) {
			all = all && e.Resident
		}
		if got := tx.AllResident(pn); got != all {
			tx.End()
			t.Fatalf("AllResident(%d) = %v, want %v", pn, got, all)
		}
	}
	for _, e := range want {
		row, ok := tx.LookupLP(e.LP)
		if !ok || tx.Entry(row) != e {
			tx.End()
			t.Fatalf("Tx.LookupLP(%v) = %v, %v; want %v", e.LP, row, ok, e)
		}
		if got := tx.Memo(row); got != r.memos[e.Addr] {
			tx.End()
			t.Fatalf("row %v's memo column holds %#x, the reference %#x", e.LP, got, r.memos[e.Addr])
		}
		if row2, ok := tx.LookupAddr(e.Addr); !ok || row2 != row {
			tx.End()
			t.Fatalf("Tx.LookupAddr(%#x) = %v, %v; want row %v", uint32(e.Addr), row2, ok, row)
		}
		// Only a datum's first byte is its ordinary pointer.
		if _, ok := tx.LookupAddr(e.Addr + 1); ok && e.Size > 1 {
			tx.End()
			t.Fatalf("interior address %#x of %v resolves", uint32(e.Addr+1), e.LP)
		}
	}
	// VisitPages over a random subset of the probes: every row covering one
	// of them, once, in Entries order.
	var subset []uint32
	for _, pn := range probes {
		if rng.Intn(2) == 0 {
			subset = append(subset, pn)
		}
	}
	var covering, visitedOn []Entry
	for _, e := range r.snap.rows {
		first, last := r.pagesOf(e)
		if slices.ContainsFunc(subset, func(pn uint32) bool { return first <= pn && pn <= last }) {
			covering = append(covering, *e)
		}
	}
	tx.VisitPages(subset, func(e Entry) bool { visitedOn = append(visitedOn, e); return true })
	tx.End()
	if !slices.Equal(visitedOn, covering) {
		t.Fatalf("VisitPages(%v) saw %v\nwant %v", subset, visitedOn, covering)
	}
	for _, e := range want {
		if got, ok := tb.OfferedMemo(e.Addr); ok != (e.HasMemo && !r.memosVoid) || ok && got != r.memos[e.Addr] {
			t.Fatalf("OfferedMemo(%v) = %#x, %v; reference %#x, %v, void %v", e.LP, got, ok, r.memos[e.Addr], e.HasMemo, r.memosVoid)
		}
	}
	for _, pn := range probes {
		var rows []Entry
		var plain, stale []uint32
		for _, e := range r.onPage(pn) {
			rows = append(rows, *e)
			switch {
			case e.Resident:
			case e.Stale:
				stale = append(stale, e.LP.Space)
			default:
				plain = append(plain, e.LP.Space)
			}
		}
		slices.Sort(plain)
		slices.Sort(stale)
		plain, stale = slices.Compact(plain), slices.Compact(stale)
		if got := tb.PageEntries(pn); !slices.Equal(got, rows) {
			t.Fatalf("PageEntries(%d) = %v\nwant %v", pn, got, rows)
		}
		gp, gs, n := tb.PageOrigins(pn, nil, nil)
		if !slices.Equal(gp, plain) || !slices.Equal(gs, stale) || n != len(rows) {
			t.Fatalf("PageOrigins(%d) = %v, %v, %d\nwant %v, %v, %d", pn, gp, gs, n, plain, stale, len(rows))
		}
	}
	for _, budget := range []int{0, 31, 32, 100, 1000, 50000, 1 << 30} {
		for origin := uint32(remoteID); origin <= otherID+1; origin++ {
			exclude := uint32(0)
			if len(probes) > 0 {
				exclude = probes[rng.Intn(len(probes))]
			}
			for _, stale := range []bool{false, true} {
				var got, want []wire.LongPtr
				tx := tb.Begin()
				var memoErr error
				tx.Offer(exclude, origin, budget, stale, func(row Row, e Entry) {
					got = append(got, e.LP)
					re := r.rows[e.Addr]
					if offered := re.HasMemo && !r.memosVoid; memoErr == nil && (tx.Entry(row).LP != e.LP || e.HasMemo != offered || offered && tx.Memo(row) != r.memos[e.Addr]) {
						memoErr = fmt.Errorf("Offer passed %v with memo %#x (%v); reference %#x (%v), void %v", e.LP, tx.Memo(row), e.HasMemo, r.memos[e.Addr], re.HasMemo, r.memosVoid)
					}
				})
				tx.End()
				if memoErr != nil {
					t.Fatal(memoErr)
				}
				for _, e := range r.onPage(exclude) {
					if !e.Resident && e.Stale == stale && e.LP.Space == origin {
						want = append(want, e.LP)
					}
				}
				if want = append(want, r.wants(origin, exclude, budget, stale)...); !slices.Equal(got, want) {
					t.Fatalf("Offer(%d, %d, %d, stale=%v) = %v\nwant %v", exclude, origin, budget, stale, got, want)
				}
			}
		}
	}
	for _, max := range []int{0, 1, 3, 1 << 20} {
		for origin := uint32(remoteID); origin <= otherID+1; origin++ {
			if got, want := tb.PrefetchCandidates(origin, max), r.prefetchCandidates(origin, max); !slices.Equal(got, want) {
				t.Fatalf("PrefetchCandidates(%d, %d) = %v, want %v", origin, max, got, want)
			}
		}
	}
}

// TestTableAgainstReferenceModel drives random operation sequences — every
// mutating method, multi-page types, provisional areas, both policies —
// against the table and the map-based reference, comparing every query
// after every step. Runs of fresh swizzles past the row store's next
// segment boundary make each sequence cross at least five boundaries,
// some of them in a session whose first segment an earlier, invalidated
// session's peak sized.
func TestTableAgainstReferenceModel(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, policy := range []AllocPolicy{PolicyPerOrigin, PolicyMixed} {
		for seed := 0; seed < seeds; seed++ {
			t.Run(fmt.Sprintf("policy=%d/seed=%d", policy, seed), func(t *testing.T) {
				runModelSequence(t, policy, int64(seed))
			})
		}
	}
}

func runModelSequence(t *testing.T, policy AllocPolicy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tb, sp := newTable(t, policy)
	ref := newRefTable(sp, tb.res)
	nextAddr := vmem.VAddr(0x1000)
	freshLP := func() wire.LongPtr {
		ty := types.ID(1)
		if rng.Intn(12) == 0 {
			ty = 2 // BigBlob: three pages
		}
		nextAddr += 16
		return lp(uint32(remoteID+rng.Intn(3)), nextAddr, ty)
	}
	anyRow := func() *Entry {
		if len(ref.rows) == 0 {
			return nil
		}
		rows := ref.sorted()
		return rows[rng.Intn(len(rows))]
	}
	closeAll := func() {
		for _, e := range ref.taken {
			for first, last := ref.pagesOf(&e); first <= last; first++ {
				ref.closed[first] = true
			}
		}
	}
	// crossed counts the segment boundaries the row store crossed, in all
	// sessions and in those whose first segment a nonzero hint sized.
	var crossed, crossedHinted int
	endSession := func() {
		n := 0
		for n < rowSegments && tb.rows.segs[n] != nil {
			n++
		}
		if n > 1 {
			crossed += n - 1
			if tb.rows.first > minFirstSegment {
				crossedHinted += n - 1
			}
		}
	}
	steps := 400
	if testing.Short() {
		steps = 150
	}
	for step := 0; step < steps; step++ {
		// swizzle enters l, fresh or repeated, three ways in.
		swizzle := func(l wire.LongPtr) {
			key := l.Space
			var addr vmem.VAddr
			var fresh bool
			var err error
			switch rng.Intn(3) {
			case 0:
				addr, fresh, err = tb.Swizzle(l)
			case 1:
				if _, known := ref.byLP[l]; !known && rng.Intn(2) == 0 {
					key |= ProvisionalAreaFlag
				}
				addr, fresh, err = tb.SwizzleIn(l, key)
			default:
				tx := tb.Begin()
				before := tb.live
				var row Row
				if row, err = tx.SwizzleRow(l); err == nil {
					addr, fresh = tx.Entry(row).Addr, tb.live > before
				}
				tx.End()
			}
			if err != nil {
				t.Fatalf("step %d: swizzle %v: %v", step, l, err)
			}
			known, had := ref.byLP[l]
			if fresh == had || had && addr != known {
				t.Fatalf("step %d: swizzle %v = %#x fresh=%v; reference has %#x (%v)", step, l, uint32(addr), fresh, uint32(known), had)
			}
			if fresh {
				e, ok := tb.LookupAddr(addr)
				if !ok {
					t.Fatalf("step %d: fresh row %#x not found by address", step, uint32(addr))
				}
				ref.admit(t, e, key, policy)
			}
		}
		switch op := rng.Intn(112); {
		case op >= 106: // fresh swizzles past the row store's next segment boundary
			b := int(tb.rows.first)
			if b == 0 { // nothing stored since the last Invalidate
				b = max(minFirstSegment, tb.hint)
			}
			for b < int(tb.rows.len()) {
				b *= 2
			}
			if target := b + 1 + rng.Intn(32); target <= maxModelRows {
				for int(tb.rows.len()) < target {
					swizzle(freshLP())
				}
			}
		case op >= 100: // record or drop a memo
			e := anyRow()
			if e == nil {
				continue
			}
			tx := tb.Begin()
			row, _ := tx.LookupAddr(e.Addr)
			if rng.Intn(3) == 0 {
				tx.DropMemo(row)
				e.HasMemo = false
			} else {
				ref.memos[e.Addr], e.HasMemo = rng.Uint64(), true
				tx.SetMemo(row, ref.memos[e.Addr])
			}
			tx.End()
		case op < 45: // swizzle, fresh or repeated
			l := freshLP()
			if e := anyRow(); e != nil && rng.Intn(4) == 0 {
				l = e.LP
			}
			swizzle(l)
		case op < 65: // mark resident, by address or by handle
			e := anyRow()
			if e == nil {
				continue
			}
			if rng.Intn(2) == 0 {
				tb.MarkResident(e.Addr)
			} else {
				tx := tb.Begin()
				row, ok := tx.LookupAddr(e.Addr)
				if !ok {
					t.Fatalf("step %d: row %#x lost", step, uint32(e.Addr))
				}
				tx.MarkResident(row)
				tx.End()
			}
			e.Resident, e.Stale = true, false
		case op < 68: // touch, by address or by handle
			e := anyRow()
			if e == nil {
				continue
			}
			if rng.Intn(2) == 0 {
				tb.Touch(e.Addr)
			} else {
				tx := tb.Begin()
				row, _ := tx.LookupAddr(e.Addr)
				tx.Touch(row)
				tx.End()
			}
			e.Touched = true
		case op < 72: // remove
			e := anyRow()
			if e == nil {
				continue
			}
			if err := tb.Remove(e.Addr); err != nil {
				t.Fatalf("step %d: remove %v: %v", step, e.LP, err)
			}
			delete(ref.rows, e.Addr)
			delete(ref.byLP, e.LP)
			delete(ref.memos, e.Addr)
			ref.memosVoid = true
			if err := tb.Remove(e.Addr); err == nil {
				t.Fatalf("step %d: second remove of %#x succeeded", step, uint32(e.Addr))
			}
		case op < 82: // rebind: to a new identity, onto a dead row, onto a live one
			e := anyRow()
			if e == nil {
				continue
			}
			target := freshLP()
			target.Space, target.Type = e.LP.Space, e.LP.Type
			victim := anyRow()
			if rng.Intn(3) == 0 && victim != e {
				target = victim.LP
			} else {
				victim = nil
			}
			evicted, err := tb.Rebind(e.LP, target)
			switch {
			case victim != nil && victim.Resident:
				if err == nil {
					t.Fatalf("step %d: rebind onto resident %v succeeded", step, target)
				}
				continue
			case err != nil:
				t.Fatalf("step %d: rebind %v -> %v: %v", step, e.LP, target, err)
			case evicted != (victim != nil):
				t.Fatalf("step %d: rebind %v -> %v evicted=%v, victim %v", step, e.LP, target, evicted, victim)
			}
			if victim != nil {
				delete(ref.rows, victim.Addr)
				delete(ref.memos, victim.Addr)
				ref.memosVoid = true
			}
			delete(ref.byLP, e.LP)
			e.LP = target
			ref.byLP[target] = e.Addr
		case op < 87: // demote
			tb.DemoteAll()
			for _, e := range ref.rows {
				if e.Resident {
					e.Resident, e.Stale = false, true
				}
				if e.Touched || ref.memosVoid {
					e.HasMemo = false
				}
				e.Touched = false
			}
			ref.memosVoid = false
			closeAll()
		case op < 93: // clear stale marks, unknown pointers mixed in
			var lps []wire.LongPtr
			for _, e := range ref.rows {
				if rng.Intn(3) == 0 {
					lps = append(lps, e.LP)
					e.Stale = false
				}
			}
			lps = append(lps, freshLP())
			tb.ClearStale(lps)
		case op < 98: // seal
			if e := anyRow(); e != nil {
				_, last := ref.pagesOf(e)
				tb.Seal(last)
				ref.closed[last] = true
			}
		default: // end of session
			endSession()
			tb.Invalidate()
			closeAll()
			ref.invalidate()
		}
		ref.compare(t, tb, rng)
	}
	endSession()
	if !testing.Short() && (crossed < 5 || crossedHinted == 0) {
		t.Errorf("the row store crossed %d segment boundaries, %d of them after a first segment sized by a hint; want at least 5 and 1", crossed, crossedHinted)
	}
	t.Logf("segment boundaries crossed: %d, %d after a hinted first segment", crossed, crossedHinted)
}

// maxModelRows bounds a model session's rows, the reference's queries
// being scans.
const maxModelRows = 700

// TestIndexGrowthAndDeadSlotReuse looks inside the long-pointer index: it
// stays a power of two at most half full while rows pour in, and an
// identity churned through Remove and Rebind leaves dead slots that are
// reused or swept, never an index that grows with the churn.
func TestIndexGrowthAndDeadSlotReuse(t *testing.T) {
	tb, _ := newTable(t, 0)
	checkShape := func(when string) {
		t.Helper()
		n := len(tb.index)
		if n&(n-1) != 0 || 2*tb.used > n {
			t.Fatalf("%s: index has %d slots, %d in use", when, n, tb.used)
		}
		occupied := 0
		for _, v := range tb.index {
			if v != 0 {
				occupied++
			}
		}
		if occupied != tb.used {
			t.Fatalf("%s: %d slots occupied, used says %d", when, occupied, tb.used)
		}
	}
	const n = 5000
	addrs := make([]vmem.VAddr, n)
	for i := range addrs {
		a, fresh, err := tb.Swizzle(lp(remoteID, vmem.VAddr(0x1000+16*i), 1))
		if err != nil || !fresh {
			t.Fatalf("swizzle %d: fresh=%v, %v", i, fresh, err)
		}
		addrs[i] = a
		checkShape("filling")
	}
	if len(tb.index) < 2*n || len(tb.index) > 4*n {
		t.Fatalf("%d rows indexed in %d slots", n, len(tb.index))
	}
	for i, a := range addrs {
		if got, ok := tb.LookupLP(lp(remoteID, vmem.VAddr(0x1000+16*i), 1)); !ok || got != a {
			t.Fatalf("row %d found at %#x, %v; want %#x", i, uint32(got), ok, uint32(a))
		}
	}
	// Remove every other row, then bring the same identities back: each is
	// a new row at a new address (cache room is not reused within a
	// session), found through a slot its predecessor left dead.
	for i := 0; i < n; i += 2 {
		if err := tb.Remove(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	slots := len(tb.index)
	for i := 0; i < n; i += 2 {
		l := lp(remoteID, vmem.VAddr(0x1000+16*i), 1)
		if _, ok := tb.LookupLP(l); ok {
			t.Fatalf("removed row %d still indexed", i)
		}
		a, fresh, err := tb.Swizzle(l)
		if err != nil || !fresh || a == addrs[i] {
			t.Fatalf("re-swizzle %d = %#x fresh=%v, %v (old address %#x)", i, uint32(a), fresh, err, uint32(addrs[i]))
		}
		checkShape("refilling")
	}
	if len(tb.index) != slots {
		t.Fatalf("refilling %d dead identities changed the index from %d to %d slots", n/2, slots, len(tb.index))
	}
	// One row walked through 100 000 identities: every step kills a slot.
	cur := lp(otherID, 0x10, 1)
	if _, _, err := tb.Swizzle(cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		next := lp(otherID, vmem.VAddr(0x20+i), 1)
		if _, err := tb.Rebind(cur, next); err != nil {
			t.Fatalf("rebind %d: %v", i, err)
		}
		cur = next
	}
	checkShape("after the rebind walk")
	if len(tb.index) > 2*slots {
		t.Fatalf("rebind churn grew the index from %d to %d slots", slots, len(tb.index))
	}
	if _, ok := tb.LookupLP(cur); !ok {
		t.Fatal("row lost after the rebind walk")
	}
	if _, ok := tb.LookupLP(lp(otherID, 0x20, 1)); ok {
		t.Fatal("an abandoned identity still resolves")
	}
	if tb.Len() != n+1 {
		t.Fatalf("Len() = %d, want %d", tb.Len(), n+1)
	}
}

// TestRowAtAgainstReference checks the address lookup — the stride guess
// and the binary search behind it — against a map of row addresses, at
// every byte of every page, on the shapes a page takes: one size at a
// uniform stride, mixed sizes, a datum larger than a page continuing at
// offset 0 with small data after it, and tombstones left by removals.
// Each shape fills two sessions whose rows cross six segment boundaries
// between them, the second from a first segment the first's peak sized.
func TestRowAtAgainstReference(t *testing.T) {
	reg := types.NewRegistry()
	sizes := []int{1, 2, 3, 5, 1000} // int64 words per type
	for i, n := range sizes {
		reg.MustRegister(&types.Desc{
			ID:     types.ID(i + 1),
			Name:   fmt.Sprintf("Words%d", n),
			Fields: []types.Field{{Name: "w", Kind: types.Int64, Count: n}},
		})
	}
	shapes := []struct {
		name string
		kind func(rng *rand.Rand, i int) types.ID
		cut  int // remove one row in cut (0: none)
	}{
		{"uniform", func(*rand.Rand, int) types.ID { return 2 }, 0},
		{"mixed", func(rng *rand.Rand, _ int) types.ID { return types.ID(1 + rng.Intn(4)) }, 0},
		{"multipage", func(_ *rand.Rand, i int) types.ID {
			if i%40 == 0 {
				return 5
			}
			return 2
		}, 0},
		{"tombstones", func(*rand.Rand, int) types.ID { return 2 }, 3},
		{"mixed tombstones", func(rng *rand.Rand, _ int) types.ID { return types.ID(1 + rng.Intn(5)) }, 4},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			sp, err := vmem.NewSpace(vmem.Config{PageSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			tb := New(sp, reg, selfID, PolicyPerOrigin)
			// Two sessions: the first grows from the smallest first
			// segment, the second from the first's peak.
			crossed := 0
			for session, rows := range []int{150, 1300} {
				if session > 0 {
					tb.Invalidate()
				}
				var addrs []vmem.VAddr
				for i := 0; i < rows; i++ {
					a, _, err := tb.Swizzle(lp(remoteID, vmem.VAddr(0x1000+8*i), sh.kind(rng, i)))
					if err != nil {
						t.Fatal(err)
					}
					addrs = append(addrs, a)
				}
				for k := 1; k < rowSegments && tb.rows.segs[k] != nil; k++ {
					crossed++
				}
				if sh.cut > 0 {
					for _, a := range addrs {
						if rng.Intn(sh.cut) == 0 {
							if err := tb.Remove(a); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				starts := map[vmem.VAddr]wire.LongPtr{}
				for _, e := range tb.Entries() {
					starts[e.Addr] = e.LP
				}
				first, last := sp.PageOf(addrs[0]), sp.PageOf(addrs[len(addrs)-1]+8000)
				tx := tb.Begin()
				for pn := first - 1; pn <= last+1; pn++ {
					for a := sp.PageBase(pn); a < sp.PageBase(pn)+1024; a++ {
						want, ok := starts[a]
						row, found := tx.LookupAddr(a)
						if found != ok || found && tx.Entry(row).LP != want {
							tx.End()
							t.Fatalf("session %d, address %#x: row %v (found %v), want %v (%v)", session, uint32(a), row, found, want, ok)
						}
					}
				}
				tx.End()
			}
			if crossed < 5 {
				t.Errorf("the row store crossed %d segment boundaries, want at least 5", crossed)
			}
		})
	}
}

// TestFindMemoNeverAnswersDeadRows proves find's next-row memo sound. From
// every memo position, after every step of random swizzles, removals and
// rebinds (some evicting a victim row), find answers exactly what a map
// does for every long pointer ever used — a removed row's, whose tombstone
// is null, and both identities of a rebound row — and never answers the
// null long pointer.
func TestFindMemoNeverAnswersDeadRows(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, _ := newTable(t, 0)
		byLP := map[wire.LongPtr]int32{}
		universe := []wire.LongPtr{{}}
		fresh := func() wire.LongPtr {
			l := lp(remoteID, vmem.VAddr(0x1000+16*len(universe)), 1)
			universe = append(universe, l)
			return l
		}
		live := func() wire.LongPtr {
			for {
				l := universe[1+rng.Intn(len(universe)-1)]
				if _, ok := byLP[l]; ok {
					return l
				}
			}
		}
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(byLP) < 2:
				l := fresh()
				tx := tb.Begin()
				row, err := tx.SwizzleRow(l)
				tx.End()
				if err != nil {
					t.Fatal(err)
				}
				byLP[l] = int32(row)
			case op < 7:
				l := live()
				if err := tb.Remove(tb.rows.at(byLP[l]).Addr); err != nil {
					t.Fatal(err)
				}
				delete(byLP, l)
			default:
				old, target := live(), fresh()
				if rng.Intn(3) == 0 {
					if target = live(); target == old {
						continue
					}
					delete(byLP, target) // the victim row is evicted
				}
				if _, err := tb.Rebind(old, target); err != nil {
					t.Fatal(err)
				}
				byLP[target] = byLP[old]
				delete(byLP, old)
			}
			for m := int32(0); m <= tb.rows.len(); m++ {
				for _, l := range universe {
					want, ok := byLP[l]
					if !ok {
						want = -1
					}
					tb.next = m
					got, e, _ := tb.find(l)
					if got != want || (e == nil) != (got < 0) || e != nil && e != tb.rows.at(got) {
						t.Fatalf("seed %d step %d: with the memo at row %d, find(%v) = %d (%p), want %d", seed, step, m, l, got, e, want)
					}
				}
			}
		}
	}
}
