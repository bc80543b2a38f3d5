package vmem

import (
	"fmt"
	"slices"
)

// allocator is a simple first-fit free-list allocator over a region of the
// virtual address space. Block metadata is kept outside the simulated
// memory (a side table), which keeps the simulation honest: the paper's
// malloc metadata is likewise invisible to the swizzled heap contents.
//
// The side table is a record per heap page of the blocks that start on
// it, in offset order — the shape of swizzle's page records. A bump
// allocation starts above every live block, so it appends to its page's
// record; a free-list hit inserts into a record at most a page of blocks
// long. Nothing is hashed and nothing is allocated per block: a page's
// record is sized, when the page gets its first block, for as many blocks
// as the page before it holds, so a heap filling with blocks of one size
// sizes each record once.
//
// allocator methods require the owning Space lock to be held.
type allocator struct {
	base, limit VAddr
	shift       uint    // log2 of the page size
	next        VAddr   // bump pointer; space above is virgin
	freeList    []span  // sorted, coalesced free spans below next
	pages       [][]blk // pages[pn-base page]: live blocks starting on heap page pn
	inUse       int     // live bytes
}

type span struct {
	addr VAddr
	size int
}

// blk is one live allocation in its page's record.
type blk struct {
	off  uint32 // offset of the block's first byte within its page
	size uint32 // rounded size
}

func (a *allocator) init(base, limit VAddr, shift uint) {
	a.base = base
	a.limit = limit
	a.shift = shift
	a.next = base
}

// roundSize rounds allocation sizes to 8 bytes so freed blocks are easy to
// reuse across slightly different request sizes.
func roundSize(n int) int {
	return (n + 7) &^ 7
}

func (a *allocator) alloc(size, align int) (VAddr, error) {
	size = roundSize(size)
	if align < 1 {
		align = 1
	}
	// First fit in the free list. The span is replaced by its (possibly
	// empty) pre and post remnants in place.
	for i, sp := range a.freeList {
		start := VAddr(alignUpU(uint32(sp.addr), uint32(align)))
		pre := int(start - sp.addr)
		if pre+size > sp.size {
			continue
		}
		post := sp.size - pre - size
		tail := span{addr: start + VAddr(size), size: post}
		switch {
		case pre > 0 && post > 0:
			a.freeList[i].size = pre
			a.freeList = slices.Insert(a.freeList, i+1, tail)
		case pre > 0:
			a.freeList[i].size = pre
		case post > 0:
			a.freeList[i] = tail
		default:
			a.freeList = slices.Delete(a.freeList, i, i+1)
		}
		a.record(start, size)
		return start, nil
	}
	// Bump allocation.
	start := VAddr(alignUpU(uint32(a.next), uint32(align)))
	end := start + VAddr(size)
	if start < a.next || end < start || end > a.limit {
		return Null, fmt.Errorf("%w: heap region exhausted", ErrOutOfMemory)
	}
	if pre := int(start - a.next); pre > 0 {
		a.freeList = append(a.freeList, span{addr: a.next, size: pre})
	}
	a.next = end
	a.record(start, size)
	return start, nil
}

// record enters a new live block in its page's record.
func (a *allocator) record(start VAddr, size int) {
	a.inUse += size
	pi, off := a.locate(start)
	for len(a.pages) <= pi {
		a.pages = append(a.pages, nil)
	}
	bs := a.pages[pi]
	if bs == nil {
		// As many as the page before holds, but no more than can
		// start on the rest of this one.
		n := 4
		if pi > 0 {
			n = max(n, min(len(a.pages[pi-1]), (1<<a.shift-int(off))/size+1))
		}
		bs = make([]blk, 0, n)
	}
	b := blk{off: off, size: uint32(size)}
	if n := len(bs); n == 0 || bs[n-1].off < off {
		bs = append(bs, b) // the bump path: above every live block
	} else {
		k, _ := slices.BinarySearchFunc(bs, off, cmpOff)
		bs = slices.Insert(bs, k, b)
	}
	a.pages[pi] = bs
}

// locate returns the record index of the page holding addr, an address in
// [base, next), and addr's offset within that page.
func (a *allocator) locate(addr VAddr) (int, uint32) {
	pi := int(uint32(addr)>>a.shift - uint32(a.base)>>a.shift)
	return pi, uint32(addr) & (1<<a.shift - 1)
}

func cmpOff(b blk, off uint32) int {
	return int(int64(b.off) - int64(off))
}

// find returns the record index and position of the live block starting
// at addr; ok is false for any other address — a freed block, the inside
// of a live one, or one Alloc never returned.
func (a *allocator) find(addr VAddr) (pi, k int, ok bool) {
	if addr < a.base || addr >= a.next {
		return 0, 0, false
	}
	pi, off := a.locate(addr)
	if pi >= len(a.pages) {
		return 0, 0, false
	}
	k, ok = slices.BinarySearchFunc(a.pages[pi], off, cmpOff)
	return pi, k, ok
}

func (a *allocator) free(addr VAddr) error {
	pi, k, ok := a.find(addr)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint32(addr))
	}
	size := int(a.pages[pi][k].size)
	a.pages[pi] = slices.Delete(a.pages[pi], k, k+1)
	a.inUse -= size
	a.insertSpan(span{addr: addr, size: size})
	return nil
}

// insertSpan adds a span to the free list, keeping it sorted by address and
// coalescing adjacent spans.
func (a *allocator) insertSpan(s span) {
	// Binary search for insertion point.
	lo, hi := 0, len(a.freeList)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.freeList[mid].addr < s.addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a.freeList = append(a.freeList, span{})
	copy(a.freeList[lo+1:], a.freeList[lo:])
	a.freeList[lo] = s
	// Coalesce with successor.
	if lo+1 < len(a.freeList) && s.addr+VAddr(s.size) == a.freeList[lo+1].addr {
		a.freeList[lo].size += a.freeList[lo+1].size
		a.freeList = append(a.freeList[:lo+1], a.freeList[lo+2:]...)
	}
	// Coalesce with predecessor.
	if lo > 0 && a.freeList[lo-1].addr+VAddr(a.freeList[lo-1].size) == a.freeList[lo].addr {
		a.freeList[lo-1].size += a.freeList[lo].size
		a.freeList = append(a.freeList[:lo], a.freeList[lo+1:]...)
	}
}

func (a *allocator) sizeOf(addr VAddr) (int, error) {
	pi, k, ok := a.find(addr)
	if !ok {
		return 0, fmt.Errorf("%w: %#x not a live allocation", ErrBadFree, uint32(addr))
	}
	return int(a.pages[pi][k].size), nil
}

func alignUpU(n, a uint32) uint32 {
	return (n + a - 1) / a * a
}
