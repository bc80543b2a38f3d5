package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"
)

// TestSum64Vectors pins Sum64 to XXH64 with seed 0: the vectors are the
// reference implementation's, as the Go toolchain's zstd package tests
// them.
func TestSum64Vectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"hello, world", 0xb33a384e6d1b1242},
		{"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$", 0x1032d841e824f998},
	} {
		if got := Sum64([]byte(tc.in)); got != tc.want {
			t.Errorf("Sum64(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// FuzzSum64 checks the one-shot Sum64 against the streaming xxhash64
// below, fed the input in two parts at every split point. The seed corpus
// holds every length from 0 to 300, so a plain `go test` covers each tail
// length and stripe count on both sides of the 32-byte stripe boundary.
func FuzzSum64(f *testing.F) {
	buf := make([]byte, 300)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(buf); n++ {
		f.Add(buf[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want := Sum64(b)
		for k := 0; k <= len(b); k++ {
			var xh xxhash64
			xh.reset()
			xh.update(b[:k])
			xh.update(b[k:])
			if got := xh.digest(); got != want {
				t.Fatalf("len %d: Sum64 = %#x, streaming split at %d = %#x", len(b), want, k, got)
			}
		}
	})
}

// BenchmarkSum64 measures the hash at an item's size and at a page's.
func BenchmarkSum64(b *testing.B) {
	for _, n := range []int{32, 4096} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				Sum64(buf)
			}
		})
	}
}

// xxhash64 is a streaming XXH64 (seed 0), ported from the Go toolchain's
// internal/zstd: the reference FuzzSum64 holds the one-shot form to.
type xxhash64 struct {
	len uint64    // total length hashed
	v   [4]uint64 // accumulators
	buf [32]byte  // buffered tail
	cnt int       // bytes in buf
}

func (xh *xxhash64) reset() {
	*xh = xxhash64{}
	xh.v[0] = xxhPrime1
	xh.v[0] += xxhPrime2
	xh.v[1] = xxhPrime2
	xh.v[3] = xxhPrime1
	xh.v[3] = -xh.v[3]
}

func (xh *xxhash64) update(b []byte) {
	xh.len += uint64(len(b))
	if xh.cnt+len(b) < len(xh.buf) {
		copy(xh.buf[xh.cnt:], b)
		xh.cnt += len(b)
		return
	}
	if xh.cnt > 0 {
		n := copy(xh.buf[xh.cnt:], b)
		b = b[n:]
		for i := range xh.v {
			xh.v[i] = xh.round(xh.v[i], binary.LittleEndian.Uint64(xh.buf[8*i:]))
		}
		xh.cnt = 0
	}
	for len(b) >= 32 {
		for i := range xh.v {
			xh.v[i] = xh.round(xh.v[i], binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[32:]
	}
	if len(b) > 0 {
		copy(xh.buf[:], b)
		xh.cnt = len(b)
	}
}

func (xh *xxhash64) digest() uint64 {
	var h64 uint64
	if xh.len < 32 {
		h64 = xh.v[2] + xxhPrime5
	} else {
		h64 = bits.RotateLeft64(xh.v[0], 1) +
			bits.RotateLeft64(xh.v[1], 7) +
			bits.RotateLeft64(xh.v[2], 12) +
			bits.RotateLeft64(xh.v[3], 18)
		for _, v := range xh.v {
			h64 = xh.mergeRound(h64, v)
		}
	}
	h64 += xh.len
	n := xh.len & 31
	buf := xh.buf[:]
	for n >= 8 {
		h64 ^= xh.round(0, binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		h64 = bits.RotateLeft64(h64, 27)*xxhPrime1 + xxhPrime4
		n -= 8
	}
	if n >= 4 {
		h64 ^= uint64(binary.LittleEndian.Uint32(buf)) * xxhPrime1
		buf = buf[4:]
		h64 = bits.RotateLeft64(h64, 23)*xxhPrime2 + xxhPrime3
		n -= 4
	}
	for n > 0 {
		h64 ^= uint64(buf[0]) * xxhPrime5
		buf = buf[1:]
		h64 = bits.RotateLeft64(h64, 11) * xxhPrime1
		n--
	}
	h64 ^= h64 >> 33
	h64 *= xxhPrime2
	h64 ^= h64 >> 29
	h64 *= xxhPrime3
	h64 ^= h64 >> 32
	return h64
}

func (xh *xxhash64) round(v, n uint64) uint64 {
	v += n * xxhPrime2
	v = bits.RotateLeft64(v, 31)
	v *= xxhPrime1
	return v
}

func (xh *xxhash64) mergeRound(v, n uint64) uint64 {
	n = xh.round(0, n)
	v ^= n
	v = v*xxhPrime1 + xxhPrime4
	return v
}
