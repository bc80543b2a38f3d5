package types

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"smartrpc/internal/arch"
)

// treeNode builds the paper's experimental node type: two pointers and
// 8 bytes of data (16 bytes total on a 32-bit machine).
func treeNode() *Desc {
	return &Desc{
		ID:   1,
		Name: "TreeNode",
		Fields: []Field{
			{Name: "left", Kind: Ptr, Elem: 1},
			{Name: "right", Kind: Ptr, Elem: 1},
			{Name: "data", Kind: Int64},
		},
	}
}

func TestPaperNodeIs16BytesOnSPARC(t *testing.T) {
	l := LayoutOf(treeNode(), arch.SPARC32())
	if l.Size != 16 {
		t.Errorf("TreeNode size on sparc32 = %d, want 16 (paper: 16-byte nodes)", l.Size)
	}
	if got := len(l.PtrOffsets); got != 2 {
		t.Errorf("pointer words = %d, want 2", got)
	}
	if l.PtrOffsets[0] != 0 || l.PtrOffsets[1] != 4 {
		t.Errorf("pointer offsets = %v, want [0 4]", l.PtrOffsets)
	}
	if l.Fields[2].Offset != 8 {
		t.Errorf("data offset = %d, want 8", l.Fields[2].Offset)
	}
}

func TestLayoutDiffersAcrossArchitectures(t *testing.T) {
	d := treeNode()
	sparc := LayoutOf(d, arch.SPARC32())
	alpha := LayoutOf(d, arch.Alpha64())
	if sparc.Size == alpha.Size {
		t.Errorf("heterogeneity lost: sparc size %d == alpha size %d", sparc.Size, alpha.Size)
	}
	if alpha.Size != 24 {
		t.Errorf("TreeNode on alpha64 = %d bytes, want 24 (two 8-byte ptrs + int64)", alpha.Size)
	}
}

func TestLayoutPacksUnderMaxAlign(t *testing.T) {
	d := &Desc{
		ID:   7,
		Name: "Packed",
		Fields: []Field{
			{Name: "b", Kind: Uint8},
			{Name: "x", Kind: Int64},
		},
	}
	m68k := LayoutOf(d, arch.M68K32())
	if m68k.Fields[1].Offset != 2 {
		t.Errorf("m68k int64 offset = %d, want 2 (MaxAlign 2)", m68k.Fields[1].Offset)
	}
	sparc := LayoutOf(d, arch.SPARC32())
	if sparc.Fields[1].Offset != 8 {
		t.Errorf("sparc int64 offset = %d, want 8", sparc.Fields[1].Offset)
	}
}

func TestLayoutArrayFields(t *testing.T) {
	d := &Desc{
		ID:   3,
		Name: "Blob",
		Fields: []Field{
			{Name: "hdr", Kind: Uint32},
			{Name: "ptrs", Kind: Ptr, Elem: 3, Count: 4},
			{Name: "pay", Kind: Uint8, Count: 5},
		},
	}
	l := LayoutOf(d, arch.SPARC32())
	if len(l.PtrOffsets) != 4 {
		t.Fatalf("array of 4 pointers yields %d pointer offsets", len(l.PtrOffsets))
	}
	want := []int{4, 8, 12, 16}
	for i, off := range l.PtrOffsets {
		if off != want[i] {
			t.Errorf("PtrOffsets[%d] = %d, want %d", i, off, want[i])
		}
	}
	if l.Size != 28 {
		t.Errorf("Blob size = %d, want 28", l.Size)
	}
}

func TestCanonicalSize(t *testing.T) {
	// Two pointers (12 bytes each as long pointers) + int64 (8).
	if got := treeNode().CanonicalSize(); got != 32 {
		t.Errorf("canonical size = %d, want 32", got)
	}
}

func TestDescValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Desc
	}{
		{"zero id", Desc{Name: "x", Fields: []Field{{Name: "a", Kind: Int32}}}},
		{"empty name", Desc{ID: 1, Fields: []Field{{Name: "a", Kind: Int32}}}},
		{"no fields", Desc{ID: 1, Name: "x"}},
		{"dup field", Desc{ID: 1, Name: "x", Fields: []Field{{Name: "a", Kind: Int32}, {Name: "a", Kind: Int32}}}},
		{"bad kind", Desc{ID: 1, Name: "x", Fields: []Field{{Name: "a", Kind: Kind(99)}}}},
		{"ptr without elem", Desc{ID: 1, Name: "x", Fields: []Field{{Name: "a", Kind: Ptr}}}},
		{"negative count", Desc{ID: 1, Name: "x", Fields: []Field{{Name: "a", Kind: Int32, Count: -1}}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(treeNode()); err != nil {
		t.Fatal(err)
	}
	d, err := r.Lookup(1)
	if err != nil || d.Name != "TreeNode" {
		t.Fatalf("Lookup(1) = %v, %v", d, err)
	}
	d, err = r.LookupName("TreeNode")
	if err != nil || d.ID != 1 {
		t.Fatalf("LookupName = %v, %v", d, err)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(treeNode()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(treeNode()); err == nil {
		t.Error("duplicate ID accepted")
	}
	other := treeNode()
	other.ID = 2
	if err := r.Register(other); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestRegistryUnknownLookup(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup(42); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Lookup(42) err = %v, want ErrUnknownType", err)
	}
	if _, err := r.LookupName("nope"); !errors.Is(err, ErrUnknownType) {
		t.Errorf("LookupName err = %v, want ErrUnknownType", err)
	}
}

func TestRegistryValidateDanglingPtr(t *testing.T) {
	r := NewRegistry()
	d := &Desc{ID: 1, Name: "A", Fields: []Field{{Name: "p", Kind: Ptr, Elem: 99}}}
	if err := r.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Validate err = %v, want ErrUnknownType", err)
	}
}

func TestRegistryValidateMutualRecursion(t *testing.T) {
	r := NewRegistry()
	a := &Desc{ID: 1, Name: "A", Fields: []Field{{Name: "b", Kind: Ptr, Elem: 2}}}
	b := &Desc{ID: 2, Name: "B", Fields: []Field{{Name: "a", Kind: Ptr, Elem: 1}}}
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("mutually recursive schema rejected: %v", err)
	}
}

func TestRegistryLayoutCaching(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(treeNode()); err != nil {
		t.Fatal(err)
	}
	l1, err := r.Layout(1, arch.SPARC32())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := r.Layout(1, arch.SPARC32())
	if err != nil {
		t.Fatal(err)
	}
	if l1.Size != l2.Size || l1.Size != 16 {
		t.Errorf("cached layout mismatch: %d vs %d", l1.Size, l2.Size)
	}
	if _, err := r.Layout(9, arch.SPARC32()); err == nil {
		t.Error("Layout of unknown type succeeded")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for i, n := range []string{"zebra", "alpha", "mid"} {
		d := &Desc{ID: ID(i + 1), Name: n, Fields: []Field{{Name: "x", Kind: Int32}}}
		if err := r.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	names := r.Names()
	want := []string{"alpha", "mid", "zebra"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestRegistryMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister did not panic on invalid descriptor")
		}
	}()
	NewRegistry().MustRegister(&Desc{})
}

// Property: field offsets are monotonically non-decreasing, aligned, and
// inside the object, for arbitrary small schemas under every profile.
func TestQuickLayoutInvariants(t *testing.T) {
	profiles := []arch.Profile{arch.SPARC32(), arch.Alpha64(), arch.M68K32()}
	kinds := []Kind{Int8, Uint8, Int16, Uint16, Int32, Uint32, Int64, Uint64, Float32, Float64, Bool, Ptr}
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		d := &Desc{ID: 1, Name: "T"}
		for i, b := range seed {
			if i >= 12 {
				break
			}
			k := kinds[int(b)%len(kinds)]
			fld := Field{Name: string(rune('a' + i)), Kind: k, Count: int(b>>4)%3 + 1}
			if k == Ptr {
				fld.Elem = 1
			}
			d.Fields = append(d.Fields, fld)
		}
		for _, p := range profiles {
			l := LayoutOf(d, p)
			prevEnd := 0
			for i, fl := range l.Fields {
				if fl.Offset < prevEnd {
					return false
				}
				if fl.Offset%memAlign(d.Fields[i].Kind, p) != 0 {
					return false
				}
				prevEnd = fl.Offset + fl.ElemSize*d.Fields[i].elems()
			}
			if prevEnd > l.Size || l.Size%l.Align != 0 {
				return false
			}
			for _, po := range l.PtrOffsets {
				if po < 0 || po+p.PointerSize > l.Size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalFieldOffsets(t *testing.T) {
	d := treeNode() // ptr, ptr, int64
	if got := d.CanonicalFieldOffset(0); got != 0 {
		t.Errorf("offset(left) = %d", got)
	}
	if got := d.CanonicalFieldOffset(1); got != 12 {
		t.Errorf("offset(right) = %d, want 12 (one long pointer)", got)
	}
	if got := d.CanonicalFieldOffset(2); got != 24 {
		t.Errorf("offset(data) = %d, want 24", got)
	}
	if got := CanonicalElemSize(Ptr); got != 12 {
		t.Errorf("CanonicalElemSize(Ptr) = %d", got)
	}
	if got := CanonicalElemSize(Int16); got != 4 {
		t.Errorf("CanonicalElemSize(Int16) = %d (XDR widens to a word)", got)
	}
}

func TestCanonicalOffsetsConsistentWithSize(t *testing.T) {
	d := &Desc{
		ID: 4, Name: "Mix",
		Fields: []Field{
			{Name: "a", Kind: Uint8, Count: 5},
			{Name: "b", Kind: Float64},
			{Name: "c", Kind: Ptr, Elem: 4, Count: 2},
		},
	}
	// Last field offset + its canonical extent == CanonicalSize.
	last := d.CanonicalFieldOffset(2) + 2*CanonicalElemSize(Ptr)
	if last != d.CanonicalSize() {
		t.Errorf("offset arithmetic inconsistent: %d vs %d", last, d.CanonicalSize())
	}
}

// TestResolverSmallAndLargeIDs covers both halves of the resolution
// cache: IDs below resolverDense (the dense array) and above it (the
// map), on either side of the boundary. A hit returns the very layout the
// fill published; a miss is not cached, so a type registered after it
// resolves.
func TestResolverSmallAndLargeIDs(t *testing.T) {
	r := NewRegistry()
	ids := []ID{1, resolverDense - 1, resolverDense, 1000}
	for _, id := range ids {
		r.MustRegister(&Desc{ID: id, Name: fmt.Sprintf("T%d", id), Fields: []Field{
			{Name: "next", Kind: Ptr, Elem: id},
			{Name: "data", Kind: Int64},
		}})
	}
	rs := r.ResolverFor(arch.SPARC32())
	for _, id := range ids {
		first, err := rs.Resolve(id)
		if err != nil {
			t.Fatalf("Resolve(%d) miss: %v", id, err)
		}
		hit, err := rs.Resolve(id)
		if err != nil || hit.Layout != first.Layout || hit.Desc != first.Desc {
			t.Errorf("Resolve(%d) hit returned a different entry (%v)", id, err)
		}
		if hit.Desc.ID != id || hit.Canon != 12+8 || hit.Layout.Size != 16 {
			t.Errorf("Resolve(%d) = ID %d, canon %d, size %d; want %d, 20, 16", id, hit.Desc.ID, hit.Canon, hit.Layout.Size, id)
		}
	}
	for _, id := range []ID{7, 5000} {
		if _, err := rs.Resolve(id); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("Resolve(%d) of an unregistered type = %v, want ErrUnknownType", id, err)
		}
		r.MustRegister(&Desc{ID: id, Name: fmt.Sprintf("T%d", id), Fields: []Field{{Name: "data", Kind: Int32}}})
		if rv, err := rs.Resolve(id); err != nil || rv.Desc.ID != id {
			t.Errorf("Resolve(%d) after registering = %v, %v", id, rv.Desc, err)
		}
	}
}

// TestResolverConcurrentFill resolves small and large IDs from many
// goroutines against a cold resolver: every goroutine must see the one
// entry the first fill published (run under -race, it also checks the
// fills publish safely).
func TestResolverConcurrentFill(t *testing.T) {
	r := NewRegistry()
	ids := []ID{1, 2, 3, resolverDense - 1, resolverDense, 300, 1000}
	for _, id := range ids {
		r.MustRegister(&Desc{ID: id, Name: fmt.Sprintf("T%d", id), Fields: []Field{{Name: "data", Kind: Int64}}})
	}
	rs := r.ResolverFor(arch.SPARC32())
	const workers = 8
	got := make([][]*Layout, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				id := ids[(i+w)%len(ids)]
				rv, err := rs.Resolve(id)
				if err != nil {
					t.Errorf("Resolve(%d): %v", id, err)
					return
				}
				got[w] = append(got[w], rv.Layout)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, l := range got[w] {
			id := ids[(i+w)%len(ids)]
			want, _ := rs.Resolve(id)
			if l != want.Layout {
				t.Errorf("worker %d saw a different layout for ID %d than the published one", w, id)
			}
		}
	}
}
