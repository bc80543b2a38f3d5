package swizzle

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

const (
	selfID   = 1
	remoteID = 2
	otherID  = 3
)

func testRegistry(t *testing.T) *types.Registry {
	t.Helper()
	r := types.NewRegistry()
	node := &types.Desc{
		ID:   1,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: 1},
			{Name: "right", Kind: types.Ptr, Elem: 1},
			{Name: "data", Kind: types.Int64},
		},
	}
	big := &types.Desc{
		ID:   2,
		Name: "BigBlob",
		Fields: []types.Field{
			{Name: "payload", Kind: types.Uint8, Count: 10000},
		},
	}
	if err := r.Register(node); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(big); err != nil {
		t.Fatal(err)
	}
	return r
}

func newTable(t *testing.T, policy AllocPolicy) (*Table, *vmem.Space) {
	t.Helper()
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(sp, testRegistry(t), selfID, policy), sp
}

func lp(space uint32, addr vmem.VAddr, ty types.ID) wire.LongPtr {
	return wire.LongPtr{Space: space, Addr: addr, Type: ty}
}

func TestSwizzleNull(t *testing.T) {
	tb, _ := newTable(t, 0)
	addr, fresh, err := tb.Swizzle(wire.LongPtr{})
	if err != nil || addr != vmem.Null || fresh {
		t.Errorf("Swizzle(null) = %#x, %v, %v", uint32(addr), fresh, err)
	}
}

func TestSwizzleLocalPointerIsIdentity(t *testing.T) {
	tb, sp := newTable(t, 0)
	local, err := sp.Alloc(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	addr, fresh, err := tb.Swizzle(lp(selfID, local, 1))
	if err != nil || addr != local || fresh {
		t.Errorf("local swizzle = %#x, %v, %v; want %#x", uint32(addr), fresh, err, uint32(local))
	}
}

func TestSwizzleRemoteAllocatesProtectedArea(t *testing.T) {
	tb, sp := newTable(t, 0)
	remote := lp(remoteID, 0x5000, 1)
	addr, fresh, err := tb.Swizzle(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Error("first swizzle not fresh")
	}
	if !sp.InCache(addr) {
		t.Errorf("swizzled address %#x outside cache region", uint32(addr))
	}
	prot, err := sp.ProtOf(sp.PageOf(addr))
	if err != nil || prot != vmem.ProtNone {
		t.Errorf("protected page area prot = %v, %v; want ---", prot, err)
	}
}

func TestSwizzleIdempotent(t *testing.T) {
	tb, _ := newTable(t, 0)
	remote := lp(remoteID, 0x5000, 1)
	a1, _, err := tb.Swizzle(remote)
	if err != nil {
		t.Fatal(err)
	}
	a2, fresh, err := tb.Swizzle(remote)
	if err != nil || fresh || a2 != a1 {
		t.Errorf("second swizzle = %#x, %v, %v; want %#x, false", uint32(a2), fresh, err, uint32(a1))
	}
	if tb.Len() != 1 {
		t.Errorf("table has %d entries, want 1", tb.Len())
	}
}

// TestDataAllocationTablePaperExample reproduces Table 1 of the paper:
// after pointers A and B are swizzled in the callee, the data allocation
// table holds two rows on the same page with their offsets and long
// pointers.
func TestDataAllocationTablePaperExample(t *testing.T) {
	tb, sp := newTable(t, 0)
	ptrA := lp(remoteID, 0xA000, 1)
	ptrB := lp(remoteID, 0xB000, 1)
	addrA, _, err := tb.Swizzle(ptrA)
	if err != nil {
		t.Fatal(err)
	}
	addrB, _, err := tb.Swizzle(ptrB)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(addrA) != sp.PageOf(addrB) {
		t.Fatalf("A and B on different pages (%d, %d); heuristic should share one page",
			sp.PageOf(addrA), sp.PageOf(addrB))
	}
	rows := tb.PageEntries(sp.PageOf(addrA))
	if len(rows) != 2 {
		t.Fatalf("table rows on page = %d, want 2", len(rows))
	}
	if rows[0].LP != ptrA || rows[1].LP != ptrB {
		t.Errorf("rows = %+v; want A then B by offset", rows)
	}
	if rows[0].Addr >= rows[1].Addr {
		t.Errorf("offsets not increasing: %#x, %#x", uint32(rows[0].Addr), uint32(rows[1].Addr))
	}
}

func TestPerOriginPolicySeparatesPages(t *testing.T) {
	tb, sp := newTable(t, PolicyPerOrigin)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tb.Swizzle(lp(otherID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(a) == sp.PageOf(b) {
		t.Error("objects from different origins share a page under PolicyPerOrigin")
	}
}

func TestMixedPolicySharesPages(t *testing.T) {
	tb, sp := newTable(t, PolicyMixed)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tb.Swizzle(lp(otherID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(a) != sp.PageOf(b) {
		t.Error("objects from different origins on different pages under PolicyMixed")
	}
}

func TestSwizzleLargeObjectSpansPages(t *testing.T) {
	tb, sp := newTable(t, 0)
	addr, _, err := tb.Swizzle(lp(remoteID, 0x100, 2)) // 10000-byte blob
	if err != nil {
		t.Fatal(err)
	}
	e, ok := tb.LookupAddr(addr)
	if !ok || e.Size != 10000 {
		t.Fatalf("entry = %+v, %v", e, ok)
	}
	// The whole object is addressable cache space.
	if !sp.InCache(addr + vmem.VAddr(e.Size-1)) {
		t.Error("large object tail outside cache")
	}
}

func TestUnswizzleRoundTrip(t *testing.T) {
	tb, _ := newTable(t, 0)
	remote := lp(remoteID, 0x5000, 1)
	addr, _, err := tb.Swizzle(remote)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Unswizzle(addr, 1)
	if err != nil || got != remote {
		t.Errorf("Unswizzle = %v, %v; want %v", got, err, remote)
	}
}

func TestUnswizzleNull(t *testing.T) {
	tb, _ := newTable(t, 0)
	got, err := tb.Unswizzle(vmem.Null, 1)
	if err != nil || !got.IsNull() {
		t.Errorf("Unswizzle(null) = %v, %v", got, err)
	}
}

func TestUnswizzleHeapPointer(t *testing.T) {
	tb, sp := newTable(t, 0)
	local, _ := sp.Alloc(16, 8)
	got, err := tb.Unswizzle(local, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := lp(selfID, local, 1)
	if got != want {
		t.Errorf("Unswizzle(heap) = %v, want %v", got, want)
	}
}

func TestUnswizzleUnknownCacheAddr(t *testing.T) {
	tb, sp := newTable(t, 0)
	base, _ := sp.AllocCachePages(1)
	if _, err := tb.Unswizzle(base+8, 1); !errors.Is(err, ErrNotSwizzled) {
		t.Errorf("err = %v, want ErrNotSwizzled", err)
	}
}

func TestRebindProvisionalPointer(t *testing.T) {
	tb, sp := newTable(t, 0)
	prov := lp(remoteID, 0xFFFF0001, 1) // provisional address from extended_malloc
	addr, _, err := tb.Swizzle(prov)
	if err != nil {
		t.Fatal(err)
	}
	real := lp(remoteID, 0x00020000, 1)
	evicted, err := tb.Rebind(prov, real)
	if err != nil {
		t.Fatal(err)
	}
	if evicted {
		t.Error("rebind onto a fresh identity reported an eviction")
	}
	// The ordinary pointer is unchanged; identity maps updated.
	got, err := tb.Unswizzle(addr, 1)
	if err != nil || got != real {
		t.Errorf("after rebind Unswizzle = %v, %v; want %v", got, err, real)
	}
	if _, ok := tb.LookupLP(prov); ok {
		t.Error("provisional identity still mapped after rebind")
	}
	if a, ok := tb.LookupLP(real); !ok || a != addr {
		t.Errorf("real identity maps to %#x, %v; want %#x", uint32(a), ok, uint32(addr))
	}
	// Page rows follow.
	rows := tb.PageEntries(sp.PageOf(addr))
	if len(rows) != 1 || rows[0].LP != real {
		t.Errorf("page rows after rebind = %+v", rows)
	}
}

func TestRebindErrors(t *testing.T) {
	tb, _ := newTable(t, 0)
	a := lp(remoteID, 0x100, 1)
	b := lp(remoteID, 0x200, 1)
	if _, err := tb.Rebind(a, b); !errors.Is(err, ErrRebindUnknown) {
		t.Errorf("rebind unknown = %v", err)
	}
	if _, _, err := tb.Swizzle(a); err != nil {
		t.Fatal(err)
	}
	baddr, _, err := tb.Swizzle(b)
	if err != nil {
		t.Fatal(err)
	}
	// A RESIDENT row under the target identity is a live datum; rebinding
	// a second datum onto it must fail.
	tb.MarkResident(baddr)
	if _, err := tb.Rebind(a, b); err == nil {
		t.Error("rebind onto resident mapping succeeded")
	}
}

// TestRebindEvictsDeadRow: the origin assigning an address for a fresh
// allocation proves nothing live exists there, so a leftover non-resident
// row under that identity — a plain want, or a stale warm-cache baseline
// surviving an origin-side free/crash-restart and address reuse — is
// evicted and the rebound row takes over the identity.
func TestRebindEvictsDeadRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale bool
	}{{"want", false}, {"stale", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tb, sp := newTable(t, 0)
			dead := lp(remoteID, 0x300, 1)
			deadAddr, _, err := tb.Swizzle(dead)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stale {
				tb.MarkResident(deadAddr)
				tb.DemoteAll()
			}
			deadEntry, ok := tb.LookupAddr(deadAddr)
			if !ok {
				t.Fatal("dead row not found before rebind")
			}
			prov := lp(remoteID, 0xFFFF0002, 1)
			provAddr, _, err := tb.Swizzle(prov)
			if err != nil {
				t.Fatal(err)
			}
			evicted, err := tb.Rebind(prov, dead)
			if err != nil {
				t.Fatalf("rebind onto %s row: %v", tc.name, err)
			}
			if !evicted {
				t.Errorf("rebind onto %s row did not report the eviction", tc.name)
			}
			// The dead slot is poisoned: a dangling dereference reads the
			// deterministic pattern, not the slot's previous (stale) bytes.
			buf := make([]byte, deadEntry.Size)
			if err := sp.ReadRaw(deadAddr, buf); err != nil {
				t.Fatalf("read evicted slot: %v", err)
			}
			for _, bb := range buf {
				if bb != rebindPoison {
					t.Errorf("evicted slot bytes = % x, want all %#x", buf, rebindPoison)
					break
				}
			}
			if a, ok := tb.LookupLP(dead); !ok || a != provAddr {
				t.Errorf("identity maps to %#x, %v; want the rebound row %#x",
					uint32(a), ok, uint32(provAddr))
			}
			if _, ok := tb.LookupAddr(deadAddr); ok {
				t.Error("evicted row still reachable by cache address")
			}
			// The evicted row's page bookkeeping must not retain it.
			for _, row := range tb.PageEntries(sp.PageOf(deadEntry.Addr)) {
				if row.Addr == deadAddr {
					t.Error("evicted row still listed on its page")
				}
			}
		})
	}
}

func TestInvalidateClearsTable(t *testing.T) {
	tb, sp := newTable(t, 0)
	if _, _, err := tb.Swizzle(lp(remoteID, 0x100, 1)); err != nil {
		t.Fatal(err)
	}
	tb.Invalidate()
	if tb.Len() != 0 {
		t.Errorf("table len after invalidate = %d", tb.Len())
	}
	// The cache pages retire with the rows.
	if u := sp.CacheUsage(); u.InUse != 0 || u.Quarantined == 0 {
		t.Errorf("cache after invalidate: %+v, want no page in use and the session's in quarantine", u)
	}
	// Re-swizzling works and produces a fresh area.
	addr, fresh, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil || !fresh || addr == vmem.Null {
		t.Errorf("post-invalidate swizzle = %#x, %v, %v", uint32(addr), fresh, err)
	}
}

func TestEntriesSorted(t *testing.T) {
	tb, _ := newTable(t, PolicyPerOrigin)
	// Alternate origins, so insertion order zigzags between two pages and
	// the (page, offset) order has to come from the sort.
	var removed vmem.VAddr
	for i := 0; i < 10; i++ {
		for _, origin := range []uint32{remoteID, otherID} {
			a, _, err := tb.Swizzle(lp(origin, vmem.VAddr(0x100+i*16), 1))
			if err != nil {
				t.Fatal(err)
			}
			if i == 4 && origin == otherID {
				removed = a
			}
		}
	}
	if err := tb.Remove(removed); err != nil {
		t.Fatal(err)
	}
	es := tb.Entries()
	if len(es) != 19 {
		t.Fatalf("entries = %d, want 19", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Addr <= es[i-1].Addr {
			t.Fatalf("entries not sorted at %d: %+v %+v", i, es[i-1], es[i])
		}
	}
	for _, e := range es {
		if e.Addr == removed {
			t.Errorf("removed row %#x still listed", uint32(removed))
		}
	}
}

func TestVisit(t *testing.T) {
	tb, _ := newTable(t, PolicyPerOrigin)
	var want []wire.LongPtr
	for i := 0; i < 8; i++ {
		p := lp(remoteID, vmem.VAddr(0x100+i*16), 1)
		a, _, err := tb.Swizzle(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			// A removed row leaves a tombstone the visitor must skip.
			if err := tb.Remove(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if i%2 == 0 {
			tb.MarkResident(a)
		}
		want = append(want, p)
	}
	var got []wire.LongPtr
	tb.Visit(func(e Entry) bool {
		if e.Resident != (uint32(e.LP.Addr-0x100)/16%2 == 0) {
			t.Errorf("row %v: resident = %v", e.LP, e.Resident)
		}
		got = append(got, e.LP)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d = %v, want %v (insertion order)", i, got[i], want[i])
		}
	}

	calls := 0
	tb.Visit(func(Entry) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("visitor ran %d times after returning false on the 3rd row", calls)
	}

	if n := testing.AllocsPerRun(10, func() {
		tb.Visit(func(e Entry) bool { return e.Size > 0 })
	}); n != 0 {
		t.Errorf("Visit allocates %v times per pass, want 0", n)
	}

	tb.Invalidate()
	tb.Visit(func(e Entry) bool {
		t.Errorf("visited %v in an invalidated table", e.LP)
		return true
	})
}

func TestUnknownTypeFails(t *testing.T) {
	tb, _ := newTable(t, 0)
	if _, _, err := tb.Swizzle(lp(remoteID, 0x100, 99)); err == nil {
		t.Error("swizzle with unknown type succeeded")
	}
}

// Property: swizzle is injective (distinct long pointers get distinct,
// non-overlapping addresses) and unswizzle inverts it.
func TestQuickSwizzleInjective(t *testing.T) {
	f := func(addrs []uint32, originSel []bool) bool {
		sp, err := vmem.NewSpace(vmem.Config{})
		if err != nil {
			return false
		}
		reg := types.NewRegistry()
		if err := reg.Register(&types.Desc{
			ID: 1, Name: "N",
			Fields: []types.Field{{Name: "x", Kind: types.Int64}, {Name: "p", Kind: types.Ptr, Elem: 1}},
		}); err != nil {
			return false
		}
		tb := New(sp, reg, selfID, PolicyPerOrigin)
		seen := make(map[vmem.VAddr]wire.LongPtr)
		for i, raw := range addrs {
			if raw == 0 {
				continue
			}
			origin := uint32(remoteID)
			if i < len(originSel) && originSel[i] {
				origin = otherID
			}
			p := lp(origin, vmem.VAddr(raw), 1)
			a, _, err := tb.Swizzle(p)
			if err != nil {
				return false
			}
			if prev, ok := seen[a]; ok && prev != p {
				return false // two long pointers share an address
			}
			seen[a] = p
			back, err := tb.Unswizzle(a, 1)
			if err != nil || back != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMarkResidentAndAllResident(t *testing.T) {
	tb, sp := newTable(t, 0)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tb.Swizzle(lp(remoteID, 0x200, 1))
	if err != nil {
		t.Fatal(err)
	}
	pn := sp.PageOf(a)
	if tb.AllResident(pn) {
		t.Error("fresh entries reported resident")
	}
	tb.MarkResident(a)
	if tb.AllResident(pn) {
		t.Error("half-resident page reported all-resident")
	}
	tb.MarkResident(b)
	if !tb.AllResident(pn) {
		t.Error("fully installed page not all-resident")
	}
	e, ok := tb.LookupAddr(a)
	if !ok || !e.Resident {
		t.Errorf("entry resident flag = %+v, %v", e, ok)
	}
	rows := tb.PageEntries(pn)
	for _, r := range rows {
		if !r.Resident {
			t.Errorf("page row not resident: %+v", r)
		}
	}
}

func TestAllResidentEmptyPage(t *testing.T) {
	tb, _ := newTable(t, 0)
	if !tb.AllResident(12345) {
		t.Error("page with no entries not trivially resident")
	}
}

func TestMarkResidentUnknownAddrIsNoop(t *testing.T) {
	tb, _ := newTable(t, 0)
	tb.MarkResident(0x4000_0000) // must not panic
}

func TestSealForcesFreshPage(t *testing.T) {
	tb, sp := newTable(t, 0)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	tb.Seal(sp.PageOf(a))
	b, _, err := tb.Swizzle(lp(remoteID, 0x200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(b) == sp.PageOf(a) {
		t.Error("entry placed on sealed page")
	}
}

func TestSealUnrelatedPageKeepsArea(t *testing.T) {
	tb, sp := newTable(t, 0)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	tb.Seal(sp.PageOf(a) + 999)
	b, _, err := tb.Swizzle(lp(remoteID, 0x200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(b) != sp.PageOf(a) {
		t.Error("unrelated seal closed the open area")
	}
}

func TestRemoveEntry(t *testing.T) {
	tb, sp := newTable(t, 0)
	target := lp(remoteID, 0x100, 1)
	a, _, err := tb.Swizzle(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove(a); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.LookupAddr(a); ok {
		t.Error("entry still present after Remove")
	}
	if _, ok := tb.LookupLP(target); ok {
		t.Error("identity still mapped after Remove")
	}
	if rows := tb.PageEntries(sp.PageOf(a)); len(rows) != 0 {
		t.Errorf("page rows after Remove: %+v", rows)
	}
	if err := tb.Remove(a); !errors.Is(err, ErrNotSwizzled) {
		t.Errorf("second Remove err = %v", err)
	}
	// Re-swizzling the identity yields a fresh slot (the old one is not
	// reused).
	b, fresh, err := tb.Swizzle(target)
	if err != nil || !fresh {
		t.Fatalf("re-swizzle = %#x, %v, %v", uint32(b), fresh, err)
	}
	if b == a {
		t.Error("removed slot reused; stale pointers would alias new data")
	}
}

func TestProvisionalAreaSeparation(t *testing.T) {
	tb, sp := newTable(t, 0)
	normal, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	prov, _, err := tb.SwizzleIn(lp(remoteID, 0xF0000001, 1), remoteID|ProvisionalAreaFlag)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(normal) == sp.PageOf(prov) {
		t.Error("provisional object shares page with fetch-destined data")
	}
}

func TestProvisionalSeparationUnderMixedPolicy(t *testing.T) {
	tb, sp := newTable(t, PolicyMixed)
	normal, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	prov, _, err := tb.SwizzleIn(lp(otherID, 0xF0000001, 1), otherID|ProvisionalAreaFlag)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(normal) == sp.PageOf(prov) {
		t.Error("mixed policy merged provisional and fetch areas")
	}
}

// TestVisitPages: the rows covering a set of pages arrive once each, in
// Entries order, whichever of a spanning datum's pages are in the set.
func TestVisitPages(t *testing.T) {
	tb, sp := newTable(t, PolicyPerOrigin)
	// Layout: two nodes, then a 10 000-byte blob on a run of its own (three
	// 4 KiB pages), then two nodes sharing the blob's last page.
	var lps []wire.LongPtr
	add := func(p wire.LongPtr) Entry {
		a, _, err := tb.Swizzle(p)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := tb.LookupAddr(a)
		lps = append(lps, p)
		return e
	}
	add(lp(remoteID, 0x100, 1))
	add(lp(remoteID, 0x110, 1))
	blob := add(lp(remoteID, 0x9000, 2))
	tail := add(lp(remoteID, 0x120, 1))
	add(lp(remoteID, 0x130, 1))
	first, last := sp.PageOf(blob.Addr), sp.PageOf(blob.Addr+vmem.VAddr(blob.Size-1))
	if tailPN := sp.PageOf(tail.Addr); last != first+2 || tailPN != last {
		t.Fatalf("layout: blob pages %d..%d, tail node on %d; want a 3-page blob sharing its last page", first, last, tailPN)
	}
	node0 := first - 1 // the page of the two leading nodes
	visit := func(pages ...uint32) []wire.LongPtr {
		var got []wire.LongPtr
		tx := tb.Begin()
		tx.VisitPages(pages, func(e Entry) bool {
			got = append(got, e.LP)
			return true
		})
		tx.End()
		return got
	}
	for _, tc := range []struct {
		name  string
		pages []uint32
		want  []wire.LongPtr
	}{
		{"every page", []uint32{node0, first, first + 1, last}, lps},
		{"last page only: the blob leads its tail page", []uint32{last}, lps[2:]},
		{"middle page only", []uint32{first + 1}, lps[2:3]},
		{"first and last: the blob once", []uint32{first, last}, lps[2:]},
		{"middle and last: the blob once", []uint32{first + 1, last}, lps[2:]},
		{"an unrelated earlier page does not hide the blob", []uint32{node0, last}, lps},
		{"a page the table never reserved", []uint32{last + 7}, nil},
	} {
		got := visit(tc.pages...)
		if len(got) != len(tc.want) {
			t.Errorf("%s: visited %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: visit %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	// The order is Entries' order.
	all := tb.Entries()
	for i, p := range visit(node0, first, first+1, last) {
		if all[i].LP != p {
			t.Errorf("visit %d = %v, Entries has %v", i, p, all[i].LP)
		}
	}
	calls := 0
	tx := tb.Begin()
	tx.VisitPages([]uint32{node0, last}, func(Entry) bool {
		calls++
		return calls < 2
	})
	tx.End()
	if calls != 2 {
		t.Errorf("visitor ran %d times after returning false on the 2nd row", calls)
	}
	pages := []uint32{node0, first, last}
	if n := testing.AllocsPerRun(10, func() {
		tx := tb.Begin()
		tx.VisitPages(pages, func(e Entry) bool { return e.Size > 0 })
		tx.End()
	}); n != 0 {
		t.Errorf("VisitPages allocates %v times per pass, want 0", n)
	}
}

// TestTouchedDiesWithTheSession: the write-back mark is set by address or
// by row, survives nothing that ends a session, and costs the row no bytes.
func TestTouchedDiesWithTheSession(t *testing.T) {
	tb, _ := newTable(t, PolicyPerOrigin)
	var addrs []vmem.VAddr
	for i := 0; i < 6; i++ {
		a, _, err := tb.Swizzle(lp(remoteID, vmem.VAddr(0x100+i*16), 1))
		if err != nil {
			t.Fatal(err)
		}
		tb.MarkResident(a)
		addrs = append(addrs, a)
	}
	touched := func() (n int) {
		tb.Visit(func(e Entry) bool {
			if e.Touched {
				n++
			}
			return true
		})
		return n
	}
	tb.Touch(addrs[1])
	tb.Touch(addrs[1] + 4) // not a datum's address: ignored
	tx := tb.Begin()
	row, ok := tx.LookupAddr(addrs[4])
	if !ok {
		t.Fatal("row 4 not found by address")
	}
	tx.Touch(row)
	tx.End()
	if e, _ := tb.LookupAddr(addrs[1]); !e.Touched {
		t.Error("Touch by address left the row unmarked")
	}
	if e, _ := tb.LookupAddr(addrs[4]); !e.Touched {
		t.Error("Touch by row left the row unmarked")
	}
	if n := touched(); n != 2 {
		t.Fatalf("%d rows touched, want 2", n)
	}
	if err := tb.Remove(addrs[4]); err != nil {
		t.Fatal(err)
	}
	tb.Touch(addrs[4]) // freed meanwhile: ignored
	if n := touched(); n != 1 {
		t.Errorf("%d rows touched after removing one, want 1", n)
	}
	tb.DemoteAll()
	if n := touched(); n != 0 {
		t.Errorf("%d rows still touched after DemoteAll", n)
	}
	if e, _ := tb.LookupAddr(addrs[1]); !e.Stale || e.Resident {
		t.Errorf("demoted row = %+v, want stale", e)
	}
	tb.Touch(addrs[2])
	tb.Invalidate()
	if a, fresh, err := tb.Swizzle(lp(remoteID, 0x100+2*16, 1)); err != nil || !fresh {
		t.Fatalf("re-swizzle after Invalidate = %#x, %v, %v", uint32(a), fresh, err)
	} else if e, _ := tb.LookupAddr(a); e.Touched {
		t.Error("a row created after Invalidate is born touched")
	}
}

// TestEntrySize pins the data allocation table's row at 24 bytes: the
// long pointer, the address, the size and the four flags. Page and offset
// are derived from the address and the memo lives in its own column, so
// a cold table, which records no memo, pays for neither.
func TestEntrySize(t *testing.T) {
	if got, want := unsafe.Sizeof(Entry{}), uintptr(24); got != want {
		t.Errorf("Entry is %d bytes, want %d", got, want)
	}
}

// TestRowPointerOutlivesGrowth: a row never moves. A pointer to a row,
// taken before 10 000 more rows arrive, still reads the row's storage: a
// mark made through the table afterwards shows through it.
func TestRowPointerOutlivesGrowth(t *testing.T) {
	tb, _ := newTable(t, 0)
	tx := tb.Begin()
	defer tx.End()
	row, err := tx.SwizzleRow(lp(remoteID, 0x1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := tb.rows.at(int32(row))
	for i := 1; i <= 10000; i++ {
		if _, _, err := tx.Swizzle(lp(remoteID, vmem.VAddr(0x1000+16*i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	tx.MarkResident(row)
	if !tx.Entry(row).Resident {
		t.Fatal("the table lost the mark")
	}
	if !p.Resident {
		t.Error("the mark does not show through a pointer taken before the table grew: the row moved")
	}
}

// TestLocateMatchesDivision holds the row store's multiply-shift division
// to the hardware's: every row index near a segment boundary, and random
// ones, lands in the segment and offset that dividing by the first
// segment's size gives, for first segments of both kinds.
func TestLocateMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, first := range []int{0, 64, 65, 100, 150, 1000, 32767, 32768, 1<<20 + 7, 1<<30 - 1} {
		s := newRowStore(first)
		f := int64(s.first)
		check := func(i int64) {
			if i < 0 || i > math.MaxInt32 {
				return
			}
			k, start := 0, int64(0)
			if q := i / f; q > 0 {
				k = bits.Len64(uint64(q))
				start = f << (k - 1)
			}
			if gk, goff := s.locate(int32(i)); gk != k || int64(goff) != i-start {
				t.Fatalf("first %d: row %d locates to segment %d offset %d, want %d and %d", f, i, gk, goff, k, i-start)
			}
		}
		for b := f; b <= math.MaxInt32; b *= 2 {
			for d := int64(-2); d <= 2; d++ {
				check(b + d)
			}
		}
		for range 10000 {
			check(rng.Int63n(math.MaxInt32 + 1))
		}
		check(0)
		check(math.MaxInt32)
	}
}
