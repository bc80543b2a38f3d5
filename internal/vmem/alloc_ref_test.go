package vmem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refAllocator is the allocator the page-record side table replaced: live
// block sizes in a Go map, and a free-list hit that rebuilds the list's
// tail. It is kept only as the reference TestAllocatorMatchesReference
// holds the allocator to.
type refAllocator struct {
	base, limit VAddr
	next        VAddr
	freeList    []span
	live        map[VAddr]int
	inUse       int
}

func newRefAllocator(base, limit VAddr) *refAllocator {
	return &refAllocator{base: base, limit: limit, next: base, live: make(map[VAddr]int)}
}

func (a *refAllocator) alloc(size, align int) (VAddr, error) {
	size = roundSize(size)
	if align < 1 {
		align = 1
	}
	for i, sp := range a.freeList {
		start := VAddr(alignUpU(uint32(sp.addr), uint32(align)))
		pre := int(start - sp.addr)
		if pre+size > sp.size {
			continue
		}
		post := sp.size - pre - size
		rest := append([]span(nil), a.freeList[i+1:]...)
		a.freeList = a.freeList[:i]
		if pre > 0 {
			a.freeList = append(a.freeList, span{addr: sp.addr, size: pre})
		}
		if post > 0 {
			a.freeList = append(a.freeList, span{addr: start + VAddr(size), size: post})
		}
		a.freeList = append(a.freeList, rest...)
		a.live[start] = size
		a.inUse += size
		return start, nil
	}
	start := VAddr(alignUpU(uint32(a.next), uint32(align)))
	if pre := int(start - a.next); pre > 0 {
		a.freeList = append(a.freeList, span{addr: a.next, size: pre})
	}
	end := start + VAddr(size)
	if end < start || end > a.limit {
		return Null, fmt.Errorf("%w: heap region exhausted", ErrOutOfMemory)
	}
	a.next = end
	a.live[start] = size
	a.inUse += size
	return start, nil
}

func (a *refAllocator) free(addr VAddr) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint32(addr))
	}
	delete(a.live, addr)
	a.inUse -= size
	s := span{addr: addr, size: size}
	lo := 0
	for lo < len(a.freeList) && a.freeList[lo].addr < s.addr {
		lo++
	}
	a.freeList = append(a.freeList[:lo], append([]span{s}, a.freeList[lo:]...)...)
	if lo+1 < len(a.freeList) && s.addr+VAddr(s.size) == a.freeList[lo+1].addr {
		a.freeList[lo].size += a.freeList[lo+1].size
		a.freeList = append(a.freeList[:lo+1], a.freeList[lo+2:]...)
	}
	if lo > 0 && a.freeList[lo-1].addr+VAddr(a.freeList[lo-1].size) == a.freeList[lo].addr {
		a.freeList[lo-1].size += a.freeList[lo].size
		a.freeList = append(a.freeList[:lo], a.freeList[lo+1:]...)
	}
	return nil
}

func (a *refAllocator) sizeOf(addr VAddr) (int, error) {
	size, ok := a.live[addr]
	if !ok {
		return 0, fmt.Errorf("%w: %#x not a live allocation", ErrBadFree, uint32(addr))
	}
	return size, nil
}

// TestAllocatorMatchesReference drives the allocator and the map-based
// reference with the same seeded sequences of Alloc, Free and AllocSize —
// sizes from 1 byte to several pages, alignments 1 to 16, and double,
// interior and wild frees among the valid ones — and requires the same
// addresses, the same ErrBadFree verdicts and the same live byte count at
// every step. Small pages make blocks straddle pages and records fill.
func TestAllocatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			s := newSpace(t, Config{PageSize: []int{64, 256, 4096}[seed%3]})
			ref := newRefAllocator(heapBase, cacheBase)
			rng := rand.New(rand.NewSource(seed))
			var live, dead []VAddr
			pick := func() VAddr {
				switch r := rng.Intn(10); {
				case r < 6 && len(live) > 0:
					return live[rng.Intn(len(live))]
				case r < 7 && len(dead) > 0:
					return dead[rng.Intn(len(dead))] // double free
				case r < 9 && len(live) > 0:
					return live[rng.Intn(len(live))] + VAddr(1+rng.Intn(16)) // interior
				default:
					return VAddr(rng.Uint32()) // wild
				}
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					size := 1 + rng.Intn(64)
					if rng.Intn(20) == 0 {
						size = 1 + rng.Intn(3*s.PageSize())
					}
					align := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
					got, gerr := s.Alloc(size, align)
					want, werr := ref.alloc(size, align)
					if got != want || (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: Alloc(%d, %d) = %#x, %v; reference %#x, %v", step, size, align, uint32(got), gerr, uint32(want), werr)
					}
					live = append(live, got)
				case op < 8:
					addr := pick()
					gerr, werr := s.Free(addr), ref.free(addr)
					if errors.Is(gerr, ErrBadFree) != errors.Is(werr, ErrBadFree) || (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: Free(%#x) = %v; reference %v", step, uint32(addr), gerr, werr)
					}
					if gerr == nil {
						for i, a := range live {
							if a == addr {
								live = append(live[:i], live[i+1:]...)
								break
							}
						}
						dead = append(dead, addr)
					}
				default:
					addr := pick()
					got, gerr := s.AllocSize(addr)
					want, werr := ref.sizeOf(addr)
					if got != want || errors.Is(gerr, ErrBadFree) != errors.Is(werr, ErrBadFree) || (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: AllocSize(%#x) = %d, %v; reference %d, %v", step, uint32(addr), got, gerr, want, werr)
					}
				}
				if got, want := s.HeapInUse(), ref.inUse; got != want {
					t.Fatalf("step %d: HeapInUse = %d; reference %d", step, got, want)
				}
			}
		})
	}
}

// TestAllocatorHitAndFreeAllocateNothing: a free-list hit splices the list
// in place and the side table is a page record, so neither an Alloc served
// from the free list nor a Free allocates.
func TestAllocatorHitAndFreeAllocateNothing(t *testing.T) {
	s := newSpace(t, Config{})
	var blocks [64]VAddr
	for i := range blocks {
		a, err := s.Alloc(24, 8)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = a
	}
	// Holes at every other block: each Alloc below is a first-fit hit
	// that consumes a whole span, and each Free puts one back.
	for i := 0; i < len(blocks); i += 2 {
		if err := s.Free(blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	n := testing.AllocsPerRun(100, func() {
		var a VAddr
		if a, err = s.Alloc(24, 8); err != nil {
			return
		}
		if a != blocks[0] {
			err = fmt.Errorf("hit at %#x, want %#x", uint32(a), uint32(blocks[0]))
			return
		}
		err = s.Free(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("a free-list hit and a free allocate %.1f times, want 0", n)
	}
	// A hit that leaves remnants on both sides of the block inserts one
	// span in place: the free list only grows on the first split.
	s = newSpace(t, Config{})
	var mid VAddr
	for _, size := range []int{8, 64, 8} {
		a, err := s.Alloc(size, 8)
		if err != nil {
			t.Fatal(err)
		}
		if size == 64 {
			mid = a
		}
	}
	if err := s.Free(mid); err != nil {
		t.Fatal(err)
	}
	n = testing.AllocsPerRun(100, func() {
		var a VAddr
		if a, err = s.Alloc(8, 16); err != nil {
			return
		}
		if a == mid || a >= mid+56 {
			err = fmt.Errorf("hit at %#x does not split the span at %#x", uint32(a), uint32(mid))
			return
		}
		err = s.Free(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("a splitting free-list hit and a free allocate %.1f times, want 0", n)
	}
}
