// Package xdr implements the subset of XDR (External Data Representation,
// RFC 1014) used as the canonical data representation between address
// spaces, mirroring the paper's use of the SunOS XDR library.
//
// All quantities are encoded big-endian and padded to 4-byte alignment, per
// the standard. The package is written from scratch against the RFC: it has
// no dependency beyond the standard library.
package xdr

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrShortBuffer is returned by Decoder methods when the input is exhausted
// before a complete item could be decoded.
var ErrShortBuffer = errors.New("xdr: short buffer")

// ErrPadding is returned when opaque/string padding bytes are non-zero,
// which RFC 1014 forbids.
var ErrPadding = errors.New("xdr: non-zero padding")

// MaxLen bounds variable-length items to protect decoders from hostile or
// corrupt length words.
const MaxLen = 1 << 30

// pad returns the number of zero bytes needed to pad n to a multiple of 4.
func pad(n int) int {
	return (4 - n%4) % 4
}

// Encoder appends XDR-encoded items to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder whose buffer has the given capacity hint.
func NewEncoder(capHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capHint)}
}

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal storage; it remains valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow ensures room for n more bytes without another reallocation.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Truncate discards all but the first n encoded bytes, retaining capacity.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// Align pads the buffer with zero bytes to a multiple of 4 bytes: the
// padding of opaque data whose length word was written before the data.
func (e *Encoder) Align() {
	for len(e.buf)%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// PutUint32 encodes an unsigned 32-bit integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt32 encodes a signed 32-bit integer (two's complement).
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes an unsigned 64-bit integer ("unsigned hyper").
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutInt64 encodes a signed 64-bit integer ("hyper").
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as 0 or 1.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutFixedOpaque encodes fixed-length opaque data (length is implicit in
// the protocol), padded to 4 bytes.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for i := 0; i < pad(len(b)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque encodes variable-length opaque data: length word then bytes,
// padded to 4 bytes.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString encodes a string as variable-length opaque data.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	for i := 0; i < pad(len(s)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// Decoder consumes XDR-encoded items from a buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a Decoder reading from b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }

// Rest returns the unread bytes. The slice aliases the decoder's buffer.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

// Skip consumes n bytes that the caller has read from Rest.
func (d *Decoder) Skip(n int) error {
	if n < 0 || n > d.Remaining() {
		return ErrShortBuffer
	}
	d.off += n
	return nil
}

// Uint32 decodes an unsigned 32-bit integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += 4
	return v, nil
}

// Int32 decodes a signed 32-bit integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an unsigned 64-bit integer.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Int64 decodes a signed 64-bit integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean; any value other than 0 or 1 is an error.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("xdr: bool value %d not in {0,1}", v)
	}
}

// Float32 decodes an IEEE-754 single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes an IEEE-754 double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// FixedOpaque decodes n bytes of fixed-length opaque data plus padding.
// The returned slice aliases the decoder's buffer.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || n > MaxLen {
		return nil, fmt.Errorf("xdr: opaque length %d out of range", n)
	}
	total := n + pad(n)
	if d.Remaining() < total {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n]
	for _, p := range d.buf[d.off+n : d.off+total] {
		if p != 0 {
			return nil, ErrPadding
		}
	}
	d.off += total
	return b, nil
}

// Opaque decodes variable-length opaque data.
// The returned slice aliases the decoder's buffer.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	return d.FixedOpaque(int(n))
}

// String decodes a string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}
