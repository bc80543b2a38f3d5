// Package types implements the data-type specifier database of the paper.
//
// A long pointer carries a data-type ID; the runtime resolves it against a
// type database (the paper assumes "a database that serves as a network
// name server") to learn the actual structure of the referenced data. The
// descriptor both drives canonical (XDR) conversion between heterogeneous
// architectures and tells the swizzler which words of an object hold
// pointers.
package types

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"smartrpc/internal/arch"
)

// ID identifies a data type across the whole distributed system.
type ID uint32

// Kind enumerates the scalar field kinds a descriptor can contain.
type Kind int

// Field kinds. Ptr is the reason this package exists: a Ptr field stores an
// ordinary pointer in memory and travels as a long pointer on the wire.
const (
	Int8 Kind = iota + 1
	Uint8
	Int16
	Uint16
	Int32
	Uint32
	Int64
	Uint64
	Float32
	Float64
	Bool
	Ptr
	// Func is a remote function pointer: a capability naming a procedure
	// registered in some address space. The paper lists function pointers
	// as an open limitation (§6, citing Ohori & Kato's stub method); this
	// implementation supports them as first-class argument values, though
	// not as struct fields (data pages hold no code).
	Func
)

var kindNames = map[Kind]string{
	Int8: "int8", Uint8: "uint8", Int16: "int16", Uint16: "uint16",
	Int32: "int32", Uint32: "uint32", Int64: "int64", Uint64: "uint64",
	Float32: "float32", Float64: "float64", Bool: "bool", Ptr: "ptr",
	Func: "func",
}

// String returns the IDL name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// canonicalSize returns the XDR-encoded size of one element of kind k.
// XDR encodes everything 4-byte aligned; 8-bit and 16-bit quantities occupy
// a full word, hypers and doubles two. Pointers travel as long pointers
// (space, address, type), three words.
func canonicalSize(k Kind) int {
	switch k {
	case Int64, Uint64, Float64:
		return 8
	case Ptr:
		return 12
	default:
		return 4
	}
}

// memSize returns the in-memory size of one element of kind k under p.
func memSize(k Kind, p arch.Profile) int {
	switch k {
	case Int8, Uint8, Bool:
		return 1
	case Int16, Uint16:
		return 2
	case Int32, Uint32, Float32:
		return 4
	case Int64, Uint64, Float64:
		return 8
	case Ptr:
		return p.PointerSize
	default:
		return 0
	}
}

// memAlign returns the in-memory alignment of kind k under p.
func memAlign(k Kind, p arch.Profile) int {
	a := memSize(k, p)
	if k == Ptr {
		a = p.PointerAlign
	}
	if a > p.MaxAlign {
		a = p.MaxAlign
	}
	if a < 1 {
		a = 1
	}
	return a
}

// Field describes one member of a structured type.
type Field struct {
	// Name is the field name as written in the IDL.
	Name string
	// Kind is the element kind.
	Kind Kind
	// Elem names the pointed-to type for Ptr fields; ignored otherwise.
	Elem ID
	// Count is the fixed array length; 0 and 1 both mean a single element.
	Count int
}

// elems returns the number of elements the field stores.
func (f Field) elems() int {
	if f.Count <= 1 {
		return 1
	}
	return f.Count
}

// Desc describes a structured data type: the unit of allocation, transfer,
// and swizzling.
type Desc struct {
	// ID is the system-wide type identifier.
	ID ID
	// Name is the IDL-level type name.
	Name string
	// Fields lists members in declaration order.
	Fields []Field
}

// Validate checks internal consistency of the descriptor (not cross-type
// references; see Registry.Validate).
func (d *Desc) Validate() error {
	if d.ID == 0 {
		return fmt.Errorf("type %q: zero type ID is reserved", d.Name)
	}
	if d.Name == "" {
		return fmt.Errorf("type %d: empty name", d.ID)
	}
	if len(d.Fields) == 0 {
		return fmt.Errorf("type %q: no fields", d.Name)
	}
	seen := make(map[string]bool, len(d.Fields))
	for i, f := range d.Fields {
		if f.Name == "" {
			return fmt.Errorf("type %q: field %d has empty name", d.Name, i)
		}
		if seen[f.Name] {
			return fmt.Errorf("type %q: duplicate field %q", d.Name, f.Name)
		}
		seen[f.Name] = true
		if !f.Kind.Valid() {
			return fmt.Errorf("type %q: field %q has invalid kind %d", d.Name, f.Name, int(f.Kind))
		}
		if f.Kind == Func {
			return fmt.Errorf("type %q: field %q: function pointers cannot be stored in data structures", d.Name, f.Name)
		}
		if f.Count < 0 {
			return fmt.Errorf("type %q: field %q has negative count", d.Name, f.Name)
		}
		if f.Kind == Ptr && f.Elem == 0 {
			return fmt.Errorf("type %q: pointer field %q has no element type", d.Name, f.Name)
		}
	}
	return nil
}

// CanonicalSize returns the XDR-encoded size of one value of this type.
func (d *Desc) CanonicalSize() int {
	n := 0
	for _, f := range d.Fields {
		n += canonicalSize(f.Kind) * f.elems()
	}
	return n
}

// CanonicalFieldOffset returns the byte offset of field i's first element
// within the canonical (XDR) encoding of a value of this type.
func (d *Desc) CanonicalFieldOffset(i int) int {
	off := 0
	for j := 0; j < i && j < len(d.Fields); j++ {
		f := d.Fields[j]
		off += canonicalSize(f.Kind) * f.elems()
	}
	return off
}

// CanonicalElemSize returns the canonical size of one element of kind k.
func CanonicalElemSize(k Kind) int { return canonicalSize(k) }

// FieldIndex returns the index of the named field, or -1.
func (d *Desc) FieldIndex(name string) int {
	for i, f := range d.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldLayout gives the placement of one field in a concrete layout.
type FieldLayout struct {
	// Offset is the byte offset of the field within the object.
	Offset int
	// ElemSize is the in-memory size of one element.
	ElemSize int
}

// Layout is the concrete in-memory arrangement of a type under one
// architecture profile.
type Layout struct {
	// Size is the total object size including tail padding.
	Size int
	// Align is the object alignment.
	Align int
	// Fields has one entry per descriptor field, in order.
	Fields []FieldLayout
	// PtrOffsets lists the byte offset of every pointer word in the object
	// (array pointer fields contribute one entry per element). The swizzler
	// walks this list.
	PtrOffsets []int
}

// LayoutOf computes the in-memory layout of d under profile p, using
// C-like rules: each field aligned to min(natural alignment, MaxAlign),
// object size rounded up to the object alignment.
func LayoutOf(d *Desc, p arch.Profile) Layout {
	var l Layout
	l.Align = 1
	off := 0
	for _, f := range d.Fields {
		a := memAlign(f.Kind, p)
		sz := memSize(f.Kind, p)
		if a > l.Align {
			l.Align = a
		}
		off = alignUp(off, a)
		l.Fields = append(l.Fields, FieldLayout{Offset: off, ElemSize: sz})
		if f.Kind == Ptr {
			for i := 0; i < f.elems(); i++ {
				l.PtrOffsets = append(l.PtrOffsets, off+i*sz)
			}
		}
		off += sz * f.elems()
	}
	l.Size = alignUp(off, l.Align)
	return l
}

func alignUp(n, a int) int {
	return (n + a - 1) / a * a
}

// ErrUnknownType is wrapped by Registry lookups that miss.
var ErrUnknownType = errors.New("types: unknown type")

// Registry is the type database. It is safe for concurrent use. In a real
// deployment this is the network name server; here every runtime holds a
// reference to a shared (or replicated) registry.
//
// Lookups are on the runtime's hottest paths (every dereference and every
// marshaled object resolves its descriptor and layout), so the registry
// publishes an immutable snapshot through an atomic pointer: reads take no
// lock at all, and the rare writes (schema registration, a layout-cache
// fill) copy the snapshot under a mutex and republish it.
type Registry struct {
	mu        sync.Mutex // serializes writers
	state     atomic.Pointer[regState]
	resolvers []*Resolver // shared per-profile caches, see ResolverFor
}

// regState is one immutable registry snapshot. Maps reachable from it are
// never mutated after publication.
type regState struct {
	byID    map[ID]*Desc
	byName  map[string]*Desc
	layouts map[layoutKey]Layout
}

type layoutKey struct {
	id   ID
	arch string
}

// NewRegistry returns an empty type database.
func NewRegistry() *Registry {
	r := &Registry{}
	r.state.Store(&regState{
		byID:    make(map[ID]*Desc),
		byName:  make(map[string]*Desc),
		layouts: make(map[layoutKey]Layout),
	})
	return r
}

// Register adds a descriptor. Pointer element types may be registered in
// any order (mutually recursive types are the common case); call Validate
// once the full schema is in.
func (r *Registry) Register(d *Desc) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	if prev, ok := st.byID[d.ID]; ok {
		return fmt.Errorf("types: ID %d already registered as %q", d.ID, prev.Name)
	}
	if prev, ok := st.byName[d.Name]; ok {
		return fmt.Errorf("types: name %q already registered as ID %d", d.Name, prev.ID)
	}
	cp := *d
	cp.Fields = append([]Field(nil), d.Fields...)
	ns := &regState{
		byID:    make(map[ID]*Desc, len(st.byID)+1),
		byName:  make(map[string]*Desc, len(st.byName)+1),
		layouts: st.layouts,
	}
	for k, v := range st.byID {
		ns.byID[k] = v
	}
	for k, v := range st.byName {
		ns.byName[k] = v
	}
	ns.byID[d.ID] = &cp
	ns.byName[d.Name] = &cp
	r.state.Store(ns)
	return nil
}

// MustRegister is Register for schemas known correct at construction time.
// It panics on error, for use during program initialization only.
func (r *Registry) MustRegister(d *Desc) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Lookup resolves a type ID.
func (r *Registry) Lookup(id ID) (*Desc, error) {
	d, ok := r.state.Load().byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: ID %d", ErrUnknownType, id)
	}
	return d, nil
}

// LookupName resolves a type name.
func (r *Registry) LookupName(name string) (*Desc, error) {
	d, ok := r.state.Load().byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: name %q", ErrUnknownType, name)
	}
	return d, nil
}

// Layout returns the (cached) layout of type id under profile p.
func (r *Registry) Layout(id ID, p arch.Profile) (Layout, error) {
	key := layoutKey{id: id, arch: p.Name}
	st := r.state.Load()
	if l, ok := st.layouts[key]; ok {
		return l, nil
	}
	d, ok := st.byID[id]
	if !ok {
		return Layout{}, fmt.Errorf("%w: ID %d", ErrUnknownType, id)
	}
	l := LayoutOf(d, p)
	r.mu.Lock()
	st = r.state.Load()
	if cached, ok := st.layouts[key]; ok {
		r.mu.Unlock()
		return cached, nil
	}
	ns := &regState{
		byID:    st.byID,
		byName:  st.byName,
		layouts: make(map[layoutKey]Layout, len(st.layouts)+1),
	}
	for k, v := range st.layouts {
		ns.layouts[k] = v
	}
	ns.layouts[key] = l
	r.state.Store(ns)
	r.mu.Unlock()
	return l, nil
}

// Resolved bundles everything the runtime needs to act on one type under
// one architecture profile: the descriptor, its concrete layout, and the
// canonical (XDR) encoded size. The layout is shared and immutable.
type Resolved struct {
	Desc   *Desc
	Layout *Layout
	// Canon is Desc.CanonicalSize(), precomputed: closure budgeting
	// charges it once per served object.
	Canon int
}

// Resolver is a per-profile resolution cache in front of a Registry. A
// hit on an ID below resolverDense is one atomic load from a dense array;
// a larger ID costs one small-key map lookup. Either returns shared
// pointers — no string hashing (the registry's layout cache is keyed by
// profile name) and no layout copying. Descriptors are immutable once
// registered, so cached entries never go stale. Obtain one with
// Registry.ResolverFor; resolvers for the same profile are shared.
type Resolver struct {
	reg *Registry
	p   arch.Profile

	// dense caches the IDs below resolverDense: the IDs a registry
	// numbering its types from one actually hands out.
	dense [resolverDense]atomic.Pointer[Resolved]

	mu    sync.Mutex // serializes cache fills
	state atomic.Pointer[map[ID]Resolved]
}

// resolverDense bounds the IDs a Resolver caches in its dense array.
const resolverDense = 64

// ResolverFor returns the shared resolver for profile p, creating it on
// first use.
func (r *Registry) ResolverFor(p arch.Profile) *Resolver {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rs := range r.resolvers {
		if rs.p.Name == p.Name {
			return rs
		}
	}
	rs := &Resolver{reg: r, p: p}
	empty := make(map[ID]Resolved)
	rs.state.Store(&empty)
	r.resolvers = append(r.resolvers, rs)
	return rs
}

// Resolve returns the descriptor, layout, and canonical size of type id.
func (rs *Resolver) Resolve(id ID) (Resolved, error) {
	if id < resolverDense {
		if e := rs.dense[id].Load(); e != nil {
			return *e, nil
		}
	} else if e, ok := (*rs.state.Load())[id]; ok {
		return e, nil
	}
	return rs.fill(id)
}

// fill computes and publishes the cache entry for id (copy-on-write, like
// the registry's own snapshot).
func (rs *Resolver) fill(id ID) (Resolved, error) {
	d, err := rs.reg.Lookup(id)
	if err != nil {
		return Resolved{}, err
	}
	l, err := rs.reg.Layout(id, rs.p)
	if err != nil {
		return Resolved{}, err
	}
	e := Resolved{Desc: d, Layout: &l, Canon: d.CanonicalSize()}
	if id < resolverDense {
		// Racing fills of one ID store equal entries; the first wins.
		rs.dense[id].CompareAndSwap(nil, &e)
		return *rs.dense[id].Load(), nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	old := *rs.state.Load()
	if prev, ok := old[id]; ok {
		return prev, nil
	}
	next := make(map[ID]Resolved, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = e
	rs.state.Store(&next)
	return e, nil
}

// Validate checks that every pointer field references a registered type.
func (r *Registry) Validate() error {
	st := r.state.Load()
	ids := make([]ID, 0, len(st.byID))
	for id := range st.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := st.byID[id]
		for _, f := range d.Fields {
			if f.Kind != Ptr {
				continue
			}
			if _, ok := st.byID[f.Elem]; !ok {
				return fmt.Errorf("type %q field %q: %w: ID %d", d.Name, f.Name, ErrUnknownType, f.Elem)
			}
		}
	}
	return nil
}

// Names returns all registered type names, sorted.
func (r *Registry) Names() []string {
	st := r.state.Load()
	names := make([]string, 0, len(st.byName))
	for n := range st.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
