package swizzle

import (
	"fmt"
	"testing"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

func benchTable(b *testing.B) *Table {
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
func installTree(b *testing.B, tb *Table, n, missing int) {
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

// BenchmarkTableColdSession is the table's whole share of a cold op: a
// fresh table filled with the paper's 32 767-node tree in install order.
// CI holds its allocs/op and B/op under a ceiling.
func BenchmarkTableColdSession(b *testing.B) {
	const n = 32767
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := benchTable(b)
		installTree(b, tb, n, n)
		if tb.Len() != n {
			b.Fatalf("table holds %d rows, want %d", tb.Len(), n)
		}
	}
}

// BenchmarkOutstandingWants measures the ride-along scan every fault runs,
// on tables of two sizes that each have exactly one partially resident
// page. The scan reads the page records and the rows of that one page, so
// CI requires the larger table's time to stay within a small factor of
// the smaller one's.
func BenchmarkOutstandingWants(b *testing.B) {
	for _, n := range []int{4096, 32768} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			tb := benchTable(b)
			// Rows take cache room in node order, 256 to a page: the last
			// page's second half stays non-resident.
			installTree(b, tb, n, n-128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wants, _ := tb.OutstandingWants(remoteID, 0, 1<<20)
				if len(wants) != 128 {
					b.Fatalf("%d wants, want 128", len(wants))
				}
			}
		})
	}
}
