package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"smartrpc/internal/arch"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
)

// mixedDesc exercises every scalar kind plus pointers and arrays.
func mixedDesc() *types.Desc {
	return &types.Desc{
		ID:   9,
		Name: "Mixed",
		Fields: []types.Field{
			{Name: "i8", Kind: types.Int8},
			{Name: "u8", Kind: types.Uint8},
			{Name: "i16", Kind: types.Int16},
			{Name: "u16", Kind: types.Uint16},
			{Name: "i32", Kind: types.Int32},
			{Name: "u32", Kind: types.Uint32},
			{Name: "i64", Kind: types.Int64},
			{Name: "u64", Kind: types.Uint64},
			{Name: "f32", Kind: types.Float32},
			{Name: "f64", Kind: types.Float64},
			{Name: "ok", Kind: types.Bool},
			{Name: "arr", Kind: types.Uint16, Count: 3},
			{Name: "self", Kind: types.Ptr, Elem: 9},
		},
	}
}

func marshalFixture(t testing.TB, profile arch.Profile) (*vmem.Space, *swizzle.Table, *types.Registry) {
	t.Helper()
	sp, err := vmem.NewSpace(vmem.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	reg := types.NewRegistry()
	reg.MustRegister(mixedDesc())
	return sp, swizzle.New(sp, reg, 1, swizzle.PolicyPerOrigin), reg
}

// writeMixed stores deterministic values derived from seed into a Mixed
// object at addr.
// resolved resolves d through res, as the runtime resolves a type before
// it encodes or decodes an object of it.
func resolved(t testing.TB, res *types.Resolver, d *types.Desc) types.Resolved {
	t.Helper()
	rv, err := res.Resolve(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func writeMixed(t testing.TB, sp *vmem.Space, reg *types.Registry, addr vmem.VAddr, seed int64) {
	t.Helper()
	d := mixedDesc()
	layout, err := reg.Layout(d.ID, sp.Profile())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i, f := range d.Fields {
		if f.Kind == types.Ptr {
			continue
		}
		count := f.Count
		if count <= 1 {
			count = 1
		}
		fl := layout.Fields[i]
		for e := 0; e < count; e++ {
			v := rng.Uint64()
			if f.Kind == types.Bool {
				v &= 1
			}
			off := addr + vmem.VAddr(fl.Offset+e*fl.ElemSize)
			if err := sp.WriteUintRaw(off, fl.ElemSize, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEncodeObjectDeterministic(t *testing.T) {
	sp, tb, reg := marshalFixture(t, arch.SPARC32())
	d, _ := reg.Lookup(9)
	layout, _ := reg.Layout(9, sp.Profile())
	addr, err := sp.Alloc(layout.Size, layout.Align)
	if err != nil {
		t.Fatal(err)
	}
	writeMixed(t, sp, reg, addr, 42)
	b1, err := encodeObject(sp, tb, resolved(t, reg.ResolverFor(sp.Profile()), d), addr)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := encodeObject(sp, tb, resolved(t, reg.ResolverFor(sp.Profile()), d), addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("encoding not deterministic")
	}
	if len(b1) != d.CanonicalSize() {
		t.Errorf("encoded %d bytes, canonical size %d", len(b1), d.CanonicalSize())
	}
}

// TestCrossArchitectureRoundTrip is the heterogeneity core property: an
// object encoded on one architecture and decoded on another must re-encode
// to identical canonical bytes, for every ordered pair of profiles.
func TestCrossArchitectureRoundTrip(t *testing.T) {
	profiles := []arch.Profile{arch.SPARC32(), arch.Alpha64(), arch.M68K32()}
	for _, src := range profiles {
		for _, dst := range profiles {
			srcSp, srcTb, reg := marshalFixture(t, src)
			d, _ := reg.Lookup(9)
			layout, _ := reg.Layout(9, src)
			addr, err := srcSp.Alloc(layout.Size, layout.Align)
			if err != nil {
				t.Fatal(err)
			}
			writeMixed(t, srcSp, reg, addr, 7)
			canonical, err := encodeObject(srcSp, srcTb, resolved(t, reg.ResolverFor(srcSp.Profile()), d), addr)
			if err != nil {
				t.Fatal(err)
			}

			dstSp, dstTb, dstReg := marshalFixture(t, dst)
			dstLayout, _ := dstReg.Layout(9, dst)
			dstD, _ := dstReg.Lookup(9)
			dstAddr, err := dstSp.Alloc(dstLayout.Size, dstLayout.Align)
			if err != nil {
				t.Fatal(err)
			}
			if err := decodeObject(dstSp, dstTb, resolved(t, dstReg.ResolverFor(dstSp.Profile()), dstD), dstAddr, canonical); err != nil {
				t.Fatalf("%s->%s decode: %v", src.Name, dst.Name, err)
			}
			back, err := encodeObject(dstSp, dstTb, resolved(t, dstReg.ResolverFor(dstSp.Profile()), dstD), dstAddr)
			if err != nil {
				t.Fatalf("%s->%s re-encode: %v", src.Name, dst.Name, err)
			}
			if !bytes.Equal(canonical, back) {
				t.Errorf("%s->%s canonical mismatch:\n src %x\nback %x", src.Name, dst.Name, canonical, back)
			}
		}
	}
}

func TestQuickCrossArchScalars(t *testing.T) {
	profiles := []arch.Profile{arch.SPARC32(), arch.Alpha64(), arch.M68K32()}
	f := func(seed int64, srcIdx, dstIdx uint8) bool {
		src := profiles[int(srcIdx)%len(profiles)]
		dst := profiles[int(dstIdx)%len(profiles)]
		srcSp, err := vmem.NewSpace(vmem.Config{Profile: src})
		if err != nil {
			return false
		}
		reg := types.NewRegistry()
		reg.MustRegister(mixedDesc())
		srcTb := swizzle.New(srcSp, reg, 1, swizzle.PolicyPerOrigin)
		layout, err := reg.Layout(9, src)
		if err != nil {
			return false
		}
		addr, err := srcSp.Alloc(layout.Size, layout.Align)
		if err != nil {
			return false
		}
		d, _ := reg.Lookup(9)
		rng := rand.New(rand.NewSource(seed))
		for i, fld := range d.Fields {
			if fld.Kind == types.Ptr {
				continue
			}
			count := fld.Count
			if count <= 1 {
				count = 1
			}
			fl := layout.Fields[i]
			for e := 0; e < count; e++ {
				v := rng.Uint64()
				if fld.Kind == types.Bool {
					v &= 1
				}
				if err := srcSp.WriteUintRaw(addr+vmem.VAddr(fl.Offset+e*fl.ElemSize), fl.ElemSize, v); err != nil {
					return false
				}
			}
		}
		canonical, err := encodeObject(srcSp, srcTb, resolved(t, reg.ResolverFor(srcSp.Profile()), d), addr)
		if err != nil {
			return false
		}
		dstSp, err := vmem.NewSpace(vmem.Config{Profile: dst})
		if err != nil {
			return false
		}
		dstTb := swizzle.New(dstSp, reg, 1, swizzle.PolicyPerOrigin)
		dstLayout, err := reg.Layout(9, dst)
		if err != nil {
			return false
		}
		dstAddr, err := dstSp.Alloc(dstLayout.Size, dstLayout.Align)
		if err != nil {
			return false
		}
		if err := decodeObject(dstSp, dstTb, resolved(t, reg.ResolverFor(dstSp.Profile()), d), dstAddr, canonical); err != nil {
			return false
		}
		back, err := encodeObject(dstSp, dstTb, resolved(t, reg.ResolverFor(dstSp.Profile()), d), dstAddr)
		if err != nil {
			return false
		}
		return bytes.Equal(canonical, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeObjectSwizzlesPointers(t *testing.T) {
	sp, tb, reg := marshalFixture(t, arch.SPARC32())
	d, _ := reg.Lookup(9)
	layout, _ := reg.Layout(9, sp.Profile())
	addr, err := sp.Alloc(layout.Size, layout.Align)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical bytes with a foreign pointer in the "self" field.
	canonical := make([]byte, d.CanonicalSize())
	selfIdx := d.FieldIndex("self")
	off := d.CanonicalFieldOffset(selfIdx)
	// space=2, addr=0x5000, type=9, big-endian words.
	canonical[off+3] = 2
	canonical[off+4] = 0
	canonical[off+5] = 0
	canonical[off+6] = 0x50
	canonical[off+7] = 0
	canonical[off+11] = 9
	if err := decodeObject(sp, tb, resolved(t, reg.ResolverFor(sp.Profile()), d), addr, canonical); err != nil {
		t.Fatal(err)
	}
	ptrOff := layout.Fields[selfIdx].Offset
	pv, err := sp.ReadPtrRaw(addr + vmem.VAddr(ptrOff))
	if err != nil {
		t.Fatal(err)
	}
	if pv == vmem.Null || !sp.InCache(pv) {
		t.Errorf("foreign pointer swizzled to %#x, want cache address", uint32(pv))
	}
	// The table now knows the identity.
	lp, err := tb.Unswizzle(pv, 9)
	if err != nil || lp.Space != 2 || lp.Addr != 0x5000 {
		t.Errorf("unswizzle = %v, %v", lp, err)
	}
}

func TestDecodeObjectTruncatedFails(t *testing.T) {
	sp, tb, reg := marshalFixture(t, arch.SPARC32())
	d, _ := reg.Lookup(9)
	layout, _ := reg.Layout(9, sp.Profile())
	addr, err := sp.Alloc(layout.Size, layout.Align)
	if err != nil {
		t.Fatal(err)
	}
	short := make([]byte, d.CanonicalSize()-4)
	if err := decodeObject(sp, tb, resolved(t, reg.ResolverFor(sp.Profile()), d), addr, short); err == nil {
		t.Error("truncated canonical data accepted")
	}
}

func TestSignExtensionAcrossEncode(t *testing.T) {
	sp, tb, reg := marshalFixture(t, arch.SPARC32())
	d, _ := reg.Lookup(9)
	layout, _ := reg.Layout(9, sp.Profile())
	addr, err := sp.Alloc(layout.Size, layout.Align)
	if err != nil {
		t.Fatal(err)
	}
	// i8 = -1 must encode as XDR int32 -1 (sign-extended).
	i8 := d.FieldIndex("i8")
	if err := sp.WriteUintRaw(addr+vmem.VAddr(layout.Fields[i8].Offset), 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	canonical, err := encodeObject(sp, tb, resolved(t, reg.ResolverFor(sp.Profile()), d), addr)
	if err != nil {
		t.Fatal(err)
	}
	off := d.CanonicalFieldOffset(i8)
	want := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if !bytes.Equal(canonical[off:off+4], want) {
		t.Errorf("int8(-1) canonical = %x, want %x", canonical[off:off+4], want)
	}
}
