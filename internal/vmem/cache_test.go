package vmem

import (
	"errors"
	"testing"
)

// session reserves the given page runs, dirties and releases every page
// the way an install and a write would, and returns the first page of each
// run.
func session(t *testing.T, s *Space, runs ...int) []uint32 {
	t.Helper()
	var firsts []uint32
	for _, n := range runs {
		base, err := s.AllocCachePages(n)
		if err != nil {
			t.Fatal(err)
		}
		pn := s.PageOf(base)
		if k := len(firsts); k > 0 && pn <= firsts[k-1] {
			t.Fatalf("run of %d at page %d after page %d: a session's pages must ascend", n, pn, firsts[k-1])
		}
		for p := pn; p < pn+uint32(n); p++ {
			if prot, _ := s.ProtOf(p); prot != ProtNone || s.IsDirty(p) || !s.CacheInUse(p) {
				t.Fatalf("page %d handed out as %v, dirty=%v, in use=%v", p, prot, s.IsDirty(p), s.CacheInUse(p))
			}
			b := make([]byte, s.PageSize())
			if err := s.ReadRaw(s.PageBase(p), b); err != nil {
				t.Fatal(err)
			}
			for _, x := range b {
				if x != 0 {
					t.Fatalf("page %d handed out with stale bytes", p)
				}
			}
			if err := s.WriteRaw(s.PageBase(p), []byte{0xEE, byte(p)}); err != nil {
				t.Fatal(err)
			}
			_ = s.SetProt(p, ProtReadWrite)
			_ = s.MarkDirty(p, true)
		}
		firsts = append(firsts, pn)
	}
	return firsts
}

// TestCacheRecyclesAfterQuarantine: hard invalidation hands a session's
// pages back only after Quarantine further invalidations, zeroed and
// protected, and a repeating workload's footprint stops growing once the
// first pages leave quarantine.
func TestCacheRecyclesAfterQuarantine(t *testing.T) {
	s := newSpace(t, Config{PageSize: 256})
	runs := []int{1, 3, 1, 2, 1}
	const sessions = 30
	owner := map[uint32]int{} // page -> last session it was handed out in
	var reserved []int
	for k := 0; k < sessions; k++ {
		for i, first := range session(t, s, runs...) {
			for p := first; p < first+uint32(runs[i]); p++ {
				if last, ok := owner[p]; ok && k-last <= Quarantine {
					t.Fatalf("session %d reuses page %d of session %d inside the quarantine", k, p, last)
				}
				owner[p] = k
			}
		}
		s.InvalidateCache()
		u := s.CacheUsage()
		if u.InUse != 0 || u.InUse+u.Quarantined+u.Free != u.Reserved {
			t.Fatalf("after session %d: %+v does not partition the reserved pages", k, u)
		}
		reserved = append(reserved, u.Reserved)
	}
	perSession := 8
	if want := (Quarantine + 1) * perSession; reserved[sessions-1] != want {
		t.Errorf("%d pages reserved after %d sessions, want %d", reserved[sessions-1], sessions, want)
	}
	for k := Quarantine + 1; k < sessions; k++ {
		if reserved[k] != reserved[Quarantine] {
			t.Fatalf("reserved pages grow after the quarantine filled: %v", reserved)
		}
	}
}

// TestCacheRunsAscendAboveLastPage: with fragmented free pages, a run is
// taken from the lowest free run above the session's last page, and a
// request no free run above it fits bumps the region, after which the
// session keeps bumping.
func TestCacheRunsAscendAboveLastPage(t *testing.T) {
	s := newSpace(t, Config{PageSize: 256})
	first := session(t, s, 1, 1, 1, 1, 1, 1)
	s.InvalidateCache()
	for i := 0; i < Quarantine; i++ {
		session(t, s, 1)
		s.InvalidateCache()
	}
	// The first session's six pages are free now: p0..p5.
	p0 := first[0]
	got := session(t, s, 2, 1, 4, 1)
	top := got[2]
	want := []uint32{p0, p0 + 2, top, top + 4}
	if got[0] != want[0] || got[1] != want[1] || got[3] != want[3] || top <= p0+5 {
		t.Errorf("runs at pages %v, want %d, %d, a fresh run above %d, then %d", got, p0, p0+2, p0+5, top+4)
	}
	if u := s.CacheUsage(); u.Free != 3 {
		t.Errorf("%d pages free after the session, want 3 (p3..p5, skipped by the bump)", u.Free)
	}
}

// TestStalePageFailsTyped: an access through a pointer kept past the hard
// invalidation fails with ErrStalePage, without reaching the fault handler,
// for as long as the page is quarantined or free; once the page is handed
// out again its faults reach the handler as usual.
func TestStalePageFailsTyped(t *testing.T) {
	s := newSpace(t, Config{PageSize: 256})
	handled := 0
	s.SetHandler(func(f Fault) error {
		handled++
		return s.SetProt(f.Page, ProtRead)
	})
	stale, err := s.AllocCachePages(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadUint(stale, 4); err != nil || handled != 1 {
		t.Fatalf("first touch: %v, %d faults handled", err, handled)
	}
	s.InvalidateCache()
	check := func(when string) {
		t.Helper()
		if _, err := s.ReadUint(stale, 4); !errors.Is(err, ErrStalePage) {
			t.Fatalf("read %s = %v, want ErrStalePage", when, err)
		}
		if err := s.WriteUint(stale+8, 4, 1); !errors.Is(err, ErrStalePage) {
			t.Fatalf("write %s = %v, want ErrStalePage", when, err)
		}
	}
	for k := 0; k < Quarantine; k++ {
		check("in quarantine")
		if _, err := s.AllocCachePages(1); err != nil {
			t.Fatal(err)
		}
		s.InvalidateCache()
	}
	check("on the free list")
	if handled != 1 {
		t.Errorf("the handler saw %d faults, want only the first touch", handled)
	}
	if s.CacheInUse(s.PageOf(stale)) {
		t.Error("a retired page reports in use")
	}
	again, err := s.AllocCachePages(1)
	if err != nil {
		t.Fatal(err)
	}
	if again != stale {
		t.Fatalf("reuse at %#x, want the freed page %#x", uint32(again), uint32(stale))
	}
	if _, err := s.ReadUint(stale, 4); err != nil || handled != 2 {
		t.Errorf("read of the reused page: %v, %d faults handled; want a handled fault", err, handled)
	}
}

// TestSessionEndWalksOnlyPagesInUse: DirtyPages, DemoteCache and
// InvalidateCache visit the pages handed out since the last hard
// invalidation, however many sessions came before, and DirtyPages appends
// into the caller's slice without allocating.
func TestSessionEndWalksOnlyPagesInUse(t *testing.T) {
	s := newSpace(t, Config{PageSize: 256})
	var buf [8]uint32
	for k := 0; k < 50; k++ {
		session(t, s, 1, 2)
		before := s.CacheUsage().Walked
		if got := s.DirtyPages(buf[:0]); len(got) != 3 {
			t.Fatalf("session %d: %d dirty pages, want 3", k, len(got))
		}
		s.DemoteCache()
		s.InvalidateCache()
		if w := s.CacheUsage().Walked - before; w != 9 {
			t.Fatalf("session %d: the session-end walks visited %d pages, want 9", k, w)
		}
	}
	session(t, s, 3)
	if n := testing.AllocsPerRun(20, func() { _ = s.DirtyPages(buf[:0]) }); n != 0 {
		t.Errorf("DirtyPages into a caller's slice allocates %.1f times", n)
	}
}

// TestMapFillsAlignmentHole: alignment padding can leave a whole heap page
// unmapped below the top of the page table; a later allocation there maps
// it in a copy of the table, and both the hole and its neighbours stay
// usable.
func TestMapFillsAlignmentHole(t *testing.T) {
	s := newSpace(t, Config{PageSize: 256})
	lo, err := s.Alloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.Alloc(8, 1024) // pads over the rest of lo's page and beyond
	if err != nil {
		t.Fatal(err)
	}
	if s.PageOf(hi)-s.PageOf(lo) < 2 {
		t.Fatalf("no hole between %#x and %#x", uint32(lo), uint32(hi))
	}
	hole := s.PageBase(s.PageOf(lo) + 1)
	if _, err := s.ProtOf(s.PageOf(hole)); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("hole page mapped before use: %v", err)
	}
	if a, err := s.Alloc(256, 256); err != nil || a != hole {
		t.Fatalf("Alloc into the hole = %#x, %v; want %#x", uint32(a), err, uint32(hole))
	}
	for i, a := range []VAddr{lo, hole, hi} {
		if err := s.WriteUint(a, 4, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range []VAddr{lo, hole, hi} {
		if v, err := s.ReadUint(a, 4); err != nil || v != uint64(i+1) {
			t.Errorf("read %#x = %d, %v; want %d", uint32(a), v, err, i+1)
		}
	}
}
