// Package core implements the Smart RPC runtime: the paper's combination
// of virtual-memory manipulation, pointer swizzling, and the RPC-session
// coherency protocol, together with the fully eager and fully lazy
// baseline policies it is evaluated against.
package core

import (
	"fmt"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// ptrTable is the part of the data allocation table the codec needs. A
// *swizzle.Table locks per call; a swizzle.Tx is the table already locked
// for a batch of installs.
type ptrTable interface {
	Swizzle(lp wire.LongPtr) (vmem.VAddr, bool, error)
	Unswizzle(addr vmem.VAddr, declared types.ID) (wire.LongPtr, error)
}

var (
	_ ptrTable = (*swizzle.Table)(nil)
	_ ptrTable = swizzle.Tx{}
)

// encodeObject converts one in-memory object into its canonical (XDR)
// representation. Pointer fields are unswizzled into long pointers using
// the declared element type of the field; the conversion is therefore
// independent of the local architecture, which is what lets spaces with
// different profiles interoperate. rv is the object's type as the
// caller's resolver resolved it (types.Resolver.Resolve).
func encodeObject(sp *vmem.Space, tb ptrTable, rv types.Resolved, addr vmem.VAddr) ([]byte, error) {
	enc := xdr.NewEncoder(rv.Canon)
	if err := encodeObjectInto(enc, sp, tb, rv, addr); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// encodeObjectInto appends one object's canonical representation to enc.
// Multi-item paths (closure replies, the modified data set) encode into a
// shared arena encoder and slice the items out afterwards, so a reply
// costs a constant number of allocations rather than two per object.
func encodeObjectInto(enc *xdr.Encoder, sp *vmem.Space, tb ptrTable, rv types.Resolved, addr vmem.VAddr) error {
	layout := rv.Layout
	for i, f := range rv.Desc.Fields {
		fl := layout.Fields[i]
		count := f.Count
		if count <= 1 {
			count = 1
		}
		for e := 0; e < count; e++ {
			off := addr + vmem.VAddr(fl.Offset+e*fl.ElemSize)
			if f.Kind == types.Ptr {
				pv, err := sp.ReadPtrRaw(off)
				if err != nil {
					return err
				}
				lp, err := tb.Unswizzle(pv, f.Elem)
				if err != nil {
					return fmt.Errorf("field %q: %w", f.Name, err)
				}
				enc.PutUint32(lp.Space)
				enc.PutUint32(uint32(lp.Addr))
				enc.PutUint32(uint32(lp.Type))
				continue
			}
			raw, err := sp.ReadUintRaw(off, fl.ElemSize)
			if err != nil {
				return err
			}
			encodeScalar(enc, f.Kind, raw)
		}
	}
	return nil
}

// encodeScalar writes one scalar element canonically. Signed kinds are
// sign-extended to their XDR word, per RFC 1014.
func encodeScalar(enc *xdr.Encoder, k types.Kind, raw uint64) {
	switch k {
	case types.Int8:
		enc.PutInt32(int32(int8(raw)))
	case types.Int16:
		enc.PutInt32(int32(int16(raw)))
	case types.Int32, types.Float32:
		enc.PutUint32(uint32(raw))
	case types.Uint8, types.Uint16, types.Uint32, types.Bool:
		enc.PutUint32(uint32(raw))
	case types.Int64, types.Uint64, types.Float64:
		enc.PutUint64(raw)
	}
}

// decodeScalar reads one scalar element from the canonical form, returning
// the raw bits to store (truncated to the in-memory width by the caller).
func decodeScalar(dec *xdr.Decoder, k types.Kind) (uint64, error) {
	switch k {
	case types.Int64, types.Uint64, types.Float64:
		return dec.Uint64()
	default:
		v, err := dec.Uint32()
		return uint64(v), err
	}
}

// decodeObject installs one object's canonical bytes at addr, swizzling
// embedded long pointers into local ordinary pointers. Swizzling may
// reserve fresh protected page areas for long pointers seen for the first
// time — this is exactly the moment the paper allocates cache room for
// newly referenced remote data. Writes bypass protection (the runtime is
// the "kernel" here).
func decodeObject(sp *vmem.Space, tb ptrTable, rv types.Resolved, addr vmem.VAddr, data []byte) error {
	layout := rv.Layout
	dec := xdr.NewDecoder(data)
	for i, f := range rv.Desc.Fields {
		fl := layout.Fields[i]
		count := f.Count
		if count <= 1 {
			count = 1
		}
		for e := 0; e < count; e++ {
			off := addr + vmem.VAddr(fl.Offset+e*fl.ElemSize)
			if f.Kind == types.Ptr {
				space, err := dec.Uint32()
				if err != nil {
					return err
				}
				a, err := dec.Uint32()
				if err != nil {
					return err
				}
				ty, err := dec.Uint32()
				if err != nil {
					return err
				}
				lp := wire.LongPtr{Space: space, Addr: vmem.VAddr(a), Type: types.ID(ty)}
				local, _, err := tb.Swizzle(lp)
				if err != nil {
					return fmt.Errorf("field %q: %w", f.Name, err)
				}
				if err := sp.WritePtrRaw(off, local); err != nil {
					return err
				}
				continue
			}
			raw, err := decodeScalar(dec, f.Kind)
			if err != nil {
				return err
			}
			if err := sp.WriteUintRaw(off, fl.ElemSize, raw); err != nil {
				return err
			}
		}
	}
	return nil
}
