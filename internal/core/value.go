package core

import (
	"fmt"
	"math"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// Value is one RPC argument or result: a scalar, or a pointer. Pointer
// values dereference through Runtime.Deref, which yields a Ref whose
// accessors behave exactly like local memory accesses — the first touch
// of remote data is resolved by the runtime underneath.
type Value struct {
	// Kind is the value's kind; pointers use types.Ptr.
	Kind types.Kind
	// Word holds a scalar's bits.
	Word uint64
	// Addr is a pointer's swizzled (local) address. Unused in lazy mode.
	Addr vmem.VAddr
	// LP is a pointer's long-format identity: the primary representation
	// in lazy mode. In smart and eager modes Ref.Ptr fills it by
	// unswizzling the address, so two values naming the same datum compare
	// equal by LP in every mode (examples/editgraph relies on this).
	LP wire.LongPtr
	// Elem is the pointed-to type for pointers.
	Elem types.ID
	// FnSpace and FnName identify a remote function for Kind ==
	// types.Func (the extension the paper defers to future work in §6).
	FnSpace uint32
	FnName  string
}

// Int64Value builds a signed integer value.
func Int64Value(v int64) Value { return Value{Kind: types.Int64, Word: uint64(v)} }

// Uint64Value builds an unsigned integer value.
func Uint64Value(v uint64) Value { return Value{Kind: types.Uint64, Word: v} }

// Float64Value builds a double-precision value.
func Float64Value(v float64) Value { return Value{Kind: types.Float64, Word: math.Float64bits(v)} }

// BoolValue builds a boolean value.
func BoolValue(v bool) Value {
	var w uint64
	if v {
		w = 1
	}
	return Value{Kind: types.Bool, Word: w}
}

// Int64 extracts a signed integer.
func (v Value) Int64() int64 { return int64(v.Word) }

// Uint64 extracts an unsigned integer.
func (v Value) Uint64() uint64 { return v.Word }

// Float64 extracts a double.
func (v Value) Float64() float64 { return math.Float64frombits(v.Word) }

// Bool extracts a boolean.
func (v Value) Bool() bool { return v.Word != 0 }

// IsNullPtr reports whether a pointer value is null.
func (v Value) IsNullPtr() bool {
	return v.Kind == types.Ptr && v.Addr == vmem.Null && v.LP.IsNull()
}

// NullPtr builds a null pointer value of the given element type.
func NullPtr(elem types.ID) Value {
	return Value{Kind: types.Ptr, Elem: elem}
}

// PtrValueAt builds a pointer value to a locally owned object.
func (rt *Runtime) PtrValueAt(addr vmem.VAddr, elem types.ID) Value {
	return Value{
		Kind: types.Ptr,
		Addr: addr,
		LP:   wire.LongPtr{Space: rt.id, Addr: addr, Type: elem},
		Elem: elem,
	}
}

// ImportPtr builds a pointer value from a long pointer learned out of
// band — a name service, a saved identity, a configuration file — rather
// than received as a call argument. A foreign pointer is swizzled into
// the cache exactly as an inbound argument would be (a reserved,
// non-resident slot that faults and fetches on first dereference inside a
// session); a local one is returned directly. This is how a client space
// reaches shared data it never exchanged a call with.
func (rt *Runtime) ImportPtr(lp wire.LongPtr) (Value, error) {
	if lp.IsNull() {
		return NullPtr(lp.Type), nil
	}
	if lp.Space == rt.id {
		return rt.PtrValueAt(lp.Addr, lp.Type), nil
	}
	v := Value{Kind: types.Ptr, LP: lp, Elem: lp.Type}
	if rt.policy != PolicyLazy {
		addr, _, err := rt.table.Swizzle(lp)
		if err != nil {
			return Value{}, err
		}
		v.Addr = addr
	}
	return v, nil
}

// FuncValue builds a remote function pointer to a procedure registered on
// this runtime. Passing it to other spaces lets them invoke the procedure
// through CallFunc, eliminating the paper's remaining limitation on
// pointers to functions.
func (rt *Runtime) FuncValue(name string) (Value, error) {
	rt.procsMu.RLock()
	_, ok := rt.procs[name]
	rt.procsMu.RUnlock()
	if !ok {
		return Value{}, fmt.Errorf("%w: %q", ErrUnknownProc, name)
	}
	return Value{Kind: types.Func, FnSpace: rt.id, FnName: name}, nil
}

// CallFunc invokes a function pointer value: local function pointers
// dispatch directly; remote ones issue an RPC to the owning space. The
// caller must be inside a session unless the function is local.
func (rt *Runtime) CallFunc(v Value, args []Value) ([]Value, error) {
	if v.Kind != types.Func {
		return nil, fmt.Errorf("core: CallFunc on %v value", v.Kind)
	}
	if v.FnSpace == rt.id {
		rt.procsMu.RLock()
		h, ok := rt.procs[v.FnName]
		rt.procsMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownProc, v.FnName)
		}
		return h(&Ctx{rt: rt, from: rt.id}, args)
	}
	return rt.Call(v.FnSpace, v.FnName, args)
}

// valueToArg converts an outbound Value, unswizzling pointers (§3.2: "when
// a remote pointer is passed as an argument of a remote procedure, the
// pointer is unswizzled on the caller side").
func (rt *Runtime) valueToArg(v Value) (wire.Arg, error) {
	if v.Kind == types.Func {
		return wire.FuncArg(v.FnSpace, v.FnName), nil
	}
	if v.Kind != types.Ptr {
		return wire.ScalarArg(v.Kind, v.Word), nil
	}
	if rt.policy == PolicyLazy {
		lp, err := rt.resolveLP(v.LP)
		if err != nil {
			return wire.Arg{}, err
		}
		return wire.PtrArg(lp), nil
	}
	lp, err := rt.table.Unswizzle(v.Addr, v.Elem)
	if err != nil {
		return wire.Arg{}, err
	}
	return wire.PtrArg(lp), nil
}

// argsToValues converts inbound arguments, swizzling pointers into local
// ordinary pointers (the callee-stub half of §3.2). In lazy mode pointers
// stay in long format and every dereference calls back.
func (rt *Runtime) argsToValues(args []wire.Arg) ([]Value, error) {
	out := make([]Value, 0, len(args))
	for _, a := range args {
		if a.Kind == types.Func {
			out = append(out, Value{Kind: types.Func, FnSpace: a.FnSpace, FnName: a.FnName})
			continue
		}
		if a.Kind != types.Ptr {
			out = append(out, Value{Kind: a.Kind, Word: a.Word})
			continue
		}
		v := Value{Kind: types.Ptr, LP: a.Ptr, Elem: a.Ptr.Type}
		if rt.policy != PolicyLazy {
			addr, _, err := rt.table.Swizzle(a.Ptr)
			if err != nil {
				return nil, err
			}
			v.Addr = addr
		}
		out = append(out, v)
	}
	return out, nil
}

// Ref is a dereferenced pointer: a typed view of one object that can be
// read and written field by field. In smart and eager modes the accessors
// are ordinary (checked) memory accesses against the simulated address
// space — the first touch of a protected page triggers the fetch — so the
// runtime cost of access is exactly that of local data once cached. In
// lazy mode every accessor performs a callback.
type Ref struct {
	rt     *Runtime
	desc   *types.Desc
	layout *types.Layout // shared, immutable (from the resolver cache)
	addr   vmem.VAddr    // smart/eager
	lp     wire.LongPtr  // lazy
	data   []byte        // lazy: the object's canonical bytes, one callback's worth
}

// Deref resolves a pointer value into a Ref. In lazy mode this performs
// the per-dereference callback immediately (one callback per dereference,
// as in §2's naive approach): field accessors then read the fetched copy,
// but dereferencing the same pointer again calls back again — there is no
// caching across Refs.
//
// The Ref is returned by value: on the smart path a dereference is just a
// couple of table lookups and allocates nothing, matching the paper's
// claim that cached remote data costs the same as local data to access.
func (rt *Runtime) Deref(v Value) (Ref, error) {
	if v.Kind != types.Ptr {
		return Ref{}, fmt.Errorf("core: cannot deref %v value", v.Kind)
	}
	if v.IsNullPtr() {
		return Ref{}, vmem.ErrNull
	}
	rv, err := rt.res.Resolve(v.Elem)
	if err != nil {
		return Ref{}, err
	}
	r := Ref{rt: rt, desc: rv.Desc}
	if rt.policy == PolicyLazy {
		r.lp, err = rt.resolveLP(v.LP)
		if err != nil {
			return Ref{}, err
		}
		r.data, err = rt.fetchOne(r.lp)
		if err != nil {
			return Ref{}, err
		}
		return r, nil
	}
	r.layout = rv.Layout
	r.addr = v.Addr
	return r, nil
}

// Type returns the referenced object's descriptor.
func (r *Ref) Type() *types.Desc { return r.desc }

// Value returns the pointer value this Ref dereferences.
func (r *Ref) Value() Value {
	v := Value{Kind: types.Ptr, Elem: r.desc.ID, Addr: r.addr, LP: r.lp}
	if r.rt.policy != PolicyLazy && r.lp.IsNull() {
		if lp, err := r.rt.table.Unswizzle(r.addr, r.desc.ID); err == nil {
			v.LP = lp
		}
	}
	return v
}

// elem is one field element an accessor works on.
type elem struct {
	i    int          // field index
	f    *types.Field // its descriptor
	addr vmem.VAddr   // smart/eager: the element's address
	size int          // smart/eager: the element's size
}

// elem resolves element idx of field name, which must be a pointer field
// exactly when ptr is set, rejecting an index outside the field with
// ErrIndexRange.
func (r *Ref) elem(name string, idx int, ptr bool) (elem, error) {
	i := r.desc.FieldIndex(name)
	if i < 0 {
		return elem{}, fmt.Errorf("core: type %s has no field %q", r.desc.Name, name)
	}
	el := elem{i: i, f: &r.desc.Fields[i]}
	switch {
	case ptr && el.f.Kind != types.Ptr:
		return elem{}, fmt.Errorf("core: field %q is not a pointer", name)
	case !ptr && el.f.Kind == types.Ptr:
		return elem{}, fmt.Errorf("core: field %q is a pointer; use Ptr or SetPtr", name)
	}
	if n := max(el.f.Count, 1); idx < 0 || idx >= n {
		return elem{}, fmt.Errorf("%w: %s.%s[%d], %d element(s)", ErrIndexRange, r.desc.Name, name, idx, n)
	}
	if r.layout != nil { // smart and eager modes
		fl := r.layout.Fields[i]
		el.addr, el.size = r.addr+vmem.VAddr(fl.Offset+idx*fl.ElemSize), fl.ElemSize
	}
	return el, nil
}

// Uint reads an unsigned scalar field element.
func (r *Ref) Uint(name string, idx int) (uint64, error) {
	el, err := r.elem(name, idx, false)
	if err != nil {
		return 0, err
	}
	return r.readUint(el, idx)
}

// readUint reads the scalar element Uint and Int resolved.
func (r *Ref) readUint(el elem, idx int) (uint64, error) {
	if r.rt.policy == PolicyLazy {
		return r.lazyScalar(el.i, *el.f, idx)
	}
	return r.rt.space.ReadUint(el.addr, el.size)
}

// SetUint writes an unsigned scalar field element.
func (r *Ref) SetUint(name string, idx int, v uint64) error {
	el, err := r.elem(name, idx, false)
	if err != nil {
		return err
	}
	if r.rt.policy == PolicyLazy {
		return r.lazySetScalar(el.i, *el.f, idx, v)
	}
	r.touch()
	return r.rt.space.WriteUint(el.addr, el.size, v)
}

// touch marks a cached foreign object written: it joins the session's
// modified data set (only objects actually written travel home at session
// end). The mark goes on before the bytes change. A fetch-path install
// holds the table for its whole batch and overwrites a resident row unless
// it is marked, so a write that landed first could be reverted by a batch
// taking the table between the write and the mark.
func (r *Ref) touch() {
	if !r.rt.space.InHeap(r.addr) {
		r.rt.table.Touch(r.addr)
	}
}

// Int reads a signed scalar field element, sign-extending from the
// field's width.
func (r *Ref) Int(name string, idx int) (int64, error) {
	el, err := r.elem(name, idx, false)
	if err != nil {
		return 0, err
	}
	raw, err := r.readUint(el, idx)
	if err != nil {
		return 0, err
	}
	switch el.f.Kind {
	case types.Int8:
		return int64(int8(raw)), nil
	case types.Int16:
		return int64(int16(raw)), nil
	case types.Int32:
		return int64(int32(raw)), nil
	default:
		return int64(raw), nil
	}
}

// SetInt writes a signed scalar field element.
func (r *Ref) SetInt(name string, idx int, v int64) error {
	return r.SetUint(name, idx, uint64(v))
}

// Float64Field reads a float64 field element.
func (r *Ref) Float64Field(name string, idx int) (float64, error) {
	raw, err := r.Uint(name, idx)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(raw), nil
}

// SetFloat64Field writes a float64 field element.
func (r *Ref) SetFloat64Field(name string, idx int, v float64) error {
	return r.SetUint(name, idx, math.Float64bits(v))
}

// Ptr reads a pointer field element, yielding a pointer Value that can be
// dereferenced in turn. Outside lazy mode the value's LP is filled by
// unswizzling the pointer word.
func (r *Ref) Ptr(name string, idx int) (Value, error) {
	el, err := r.elem(name, idx, true)
	if err != nil {
		return Value{}, err
	}
	if r.rt.policy == PolicyLazy {
		return r.lazyPtr(el.i, *el.f, idx)
	}
	pv, err := r.rt.space.ReadPtr(el.addr)
	if err != nil {
		return Value{}, err
	}
	if pv == vmem.Null {
		return NullPtr(el.f.Elem), nil
	}
	v := Value{Kind: types.Ptr, Addr: pv, Elem: el.f.Elem}
	if lp, err := r.rt.table.Unswizzle(pv, el.f.Elem); err == nil {
		v.LP = lp
	}
	return v, nil
}

// SetPtr writes a pointer field element.
func (r *Ref) SetPtr(name string, idx int, v Value) error {
	el, err := r.elem(name, idx, true)
	if err != nil {
		return err
	}
	if v.Kind != types.Ptr {
		return fmt.Errorf("core: SetPtr with %v value", v.Kind)
	}
	if r.rt.policy == PolicyLazy {
		return r.lazySetPtr(el.i, *el.f, idx, v)
	}
	r.touch()
	return r.rt.space.WritePtr(el.addr, v.Addr)
}

// --- lazy-mode accessors: one callback per dereference, no caching ---

// canonicalElemOffset locates element idx of field i in the canonical
// encoding.
func (r *Ref) canonicalElemOffset(i, idx int) int {
	return r.desc.CanonicalFieldOffset(i) + idx*types.CanonicalElemSize(r.desc.Fields[i].Kind)
}

func (r *Ref) lazyScalar(i int, f types.Field, idx int) (uint64, error) {
	dec := xdr.NewDecoder(r.data)
	if _, err := dec.FixedOpaque(r.canonicalElemOffset(i, idx)); err != nil {
		return 0, err
	}
	return decodeScalar(dec, f.Kind)
}

func (r *Ref) lazySetScalar(i int, f types.Field, idx int, v uint64) error {
	buf := make([]byte, len(r.data))
	copy(buf, r.data)
	enc := xdr.NewEncoder(8)
	encodeScalar(enc, f.Kind, v)
	off := r.canonicalElemOffset(i, idx)
	if off+enc.Len() > len(buf) {
		return fmt.Errorf("core: lazy write beyond object (%d+%d > %d)", off, enc.Len(), len(buf))
	}
	copy(buf[off:], enc.Bytes())
	r.data = buf
	return r.rt.writeOne(r.lp, buf)
}

func (r *Ref) lazyPtr(i int, f types.Field, idx int) (Value, error) {
	off := r.canonicalElemOffset(i, idx)
	dec := xdr.NewDecoder(r.data)
	if _, err := dec.FixedOpaque(off); err != nil {
		return Value{}, err
	}
	space, err := dec.Uint32()
	if err != nil {
		return Value{}, err
	}
	addr, err := dec.Uint32()
	if err != nil {
		return Value{}, err
	}
	ty, err := dec.Uint32()
	if err != nil {
		return Value{}, err
	}
	lp := wire.LongPtr{Space: space, Addr: vmem.VAddr(addr), Type: types.ID(ty)}
	if lp.IsNull() {
		return NullPtr(f.Elem), nil
	}
	return Value{Kind: types.Ptr, LP: lp, Elem: f.Elem}, nil
}

func (r *Ref) lazySetPtr(i int, f types.Field, idx int, v Value) error {
	lp := v.LP
	if v.Kind == types.Ptr && !v.IsNullPtr() {
		var err error
		if lp, err = r.rt.resolveLP(v.LP); err != nil {
			return err
		}
	}
	buf := make([]byte, len(r.data))
	copy(buf, r.data)
	enc := xdr.NewEncoder(12)
	enc.PutUint32(lp.Space)
	enc.PutUint32(uint32(lp.Addr))
	enc.PutUint32(uint32(lp.Type))
	off := r.canonicalElemOffset(i, idx)
	if off+12 > len(buf) {
		return fmt.Errorf("core: lazy pointer write beyond object")
	}
	copy(buf[off:], enc.Bytes())
	r.data = buf
	return r.rt.writeOne(r.lp, buf)
}
