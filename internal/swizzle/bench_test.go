package swizzle

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

func benchTable(b testing.TB) *Table {
	b.Helper()
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg := types.NewRegistry()
	err = reg.Register(&types.Desc{
		ID:   1,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: 1},
			{Name: "right", Kind: types.Ptr, Elem: 1},
			{Name: "data", Kind: types.Int64},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return New(sp, reg, selfID, 0)
}

// nodeLP names node i of a complete binary tree laid out in heap order at
// the origin, sixteen bytes apart.
func nodeLP(i int) wire.LongPtr {
	return wire.LongPtr{Space: remoteID, Addr: vmem.VAddr(0x10000 + 16*i), Type: 1}
}

// installTree drives the table the way a cold session installing an
// n-node tree does: batches of 512 items, each item found by long pointer,
// its two child pointers swizzled, then marked resident by handle. Nodes
// from missing on are given room but never arrive.
func installTree(b testing.TB, tb *Table, n, missing int) {
	for lo := 0; lo < n; lo += 512 {
		tx := tb.Begin()
		for i := lo; i < min(lo+512, n); i++ {
			row, err := tx.SwizzleRow(nodeLP(i))
			if err != nil {
				b.Fatal(err)
			}
			for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
				if _, _, err := tx.Swizzle(nodeLP(c)); err != nil {
					b.Fatal(err)
				}
			}
			if i < missing {
				tx.MarkResident(row)
			}
		}
		tx.End()
	}
}

// coldSession is the table's whole share of a cold op: a fresh table
// filled with the paper's 32 767-node tree in install order.
func coldSession(t testing.TB) {
	const n = 32767
	tb := benchTable(t)
	installTree(t, tb, n, n)
	if tb.Len() != n {
		t.Fatalf("table holds %d rows, want %d", tb.Len(), n)
	}
}

// TestTableColdSessionAllocs is the fault path's table gate: a cold
// session's table, with 24-byte rows in segments that are never copied,
// costs 383 allocations and 2.19 MB (2.71 MB while each row also stored
// its page, its offset and an 8-byte memo; 4.02 MB while the rows lived in
// one slice that doubled and copied; 4.06 MB with a frame per page; with
// the three Go maps the table replaced: 2 159 allocations and 11.3 MB).
// The allocation ceiling sits at about twice the figure of its day; the
// byte ceiling at 2.3 MB, below the 40-byte row's 2.71 MB.
func TestTableColdSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	coldSession(t)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		coldSession(t)
	}
	runtime.ReadMemStats(&after)
	allocs, allocBytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	if allocs > 1400 || allocBytes > 2_300_000 {
		t.Errorf("a cold session's table allocates %d times and %d B; ceilings 1 400 and 2 300 000", allocs, allocBytes)
	}
	t.Logf("cold session table: %d allocs, %d B", allocs, allocBytes)
}

func BenchmarkTableColdSession(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldSession(b)
	}
}

// wantsTable builds an n-row table whose last page is half stale: rows
// take cache room in node order, 256 to a page, every row is demoted, and
// all but the last page's second half are installed again.
func wantsTable(t testing.TB, n int) *Table {
	tb := benchTable(t)
	installTree(t, tb, n, n)
	tb.DemoteAll()
	installTree(t, tb, n-128, n-128)
	return tb
}

func scanWants(t testing.TB, tb *Table) {
	wants := 0
	tx := tb.Begin()
	tx.Offer(0, remoteID, 1<<20, true, func(Row, Entry) { wants++ })
	tx.End()
	if wants != 128 {
		t.Fatalf("%d wants, want 128", wants)
	}
}

// TestOutstandingWantsScanIsLocal: the ride-along scan every warm fault
// runs reads the page records and the rows of pages holding stale rows
// only, so an 8x larger table with the same one such page may cost at most
// 3x the time (measured 1.1x; the scan of every row it replaced: 5.5x).
// Each size keeps its fastest of several timed batches. It skips under
// -race, where packages run in parallel and the detector's own cost
// swamps the ratio; the plain tier-1 run holds it.
func TestOutstandingWantsScanIsLocal(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are not meaningful under the race detector")
	}
	fastest := func(n int) time.Duration {
		tb := wantsTable(t, n)
		best := time.Duration(1 << 62)
		for r := 0; r < 7; r++ {
			start := time.Now()
			for i := 0; i < 500; i++ {
				scanWants(t, tb)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := fastest(4096), fastest(32768)
	if large > 3*small {
		t.Errorf("the ride-along scan scales with the table: %v for 4 096 rows, %v for 32 768", small/500, large/500)
	}
	t.Logf("ride-along scan: %v for 4 096 rows, %v for 32 768", small/500, large/500)
}

// BenchmarkOutstandingWants measures the ride-along scan every warm fault
// runs, on tables of two sizes that each have exactly one page with stale
// rows. TestOutstandingWantsScanIsLocal holds the ratio of the two.
func BenchmarkOutstandingWants(b *testing.B) {
	for _, n := range []int{4096, 32768} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			tb := wantsTable(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanWants(b, tb)
			}
		})
	}
}
