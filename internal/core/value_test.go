package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smartrpc/internal/vmem"
)

// TestRefIndexOutOfRange: every Ref accessor rejects an element index
// outside its field, in every policy, before touching memory. Without the
// check, a smart Ptr("left", 1) read the right pointer and Int("data", -1)
// read both pointer words as one integer, each with a nil error, the
// setters wrote through the same arithmetic into the neighboring field,
// and a lazy SetPtr at -1 panicked.
func TestRefIndexOutOfRange(t *testing.T) {
	type access struct {
		name string
		do   func(r *Ref, idx int) error
	}
	accesses := []access{
		{"Int", func(r *Ref, idx int) error { _, err := r.Int("data", idx); return err }},
		{"Uint", func(r *Ref, idx int) error { _, err := r.Uint("data", idx); return err }},
		{"Float64Field", func(r *Ref, idx int) error { _, err := r.Float64Field("data", idx); return err }},
		{"Ptr", func(r *Ref, idx int) error { _, err := r.Ptr("left", idx); return err }},
		{"SetInt", func(r *Ref, idx int) error { return r.SetInt("data", idx, -7) }},
		{"SetFloat64Field", func(r *Ref, idx int) error { return r.SetFloat64Field("data", idx, 1.5) }},
		{"SetPtr", func(r *Ref, idx int) error { return r.SetPtr("left", idx, NullPtr(nodeType)) }},
	}
	for _, policy := range []Policy{PolicySmart, PolicyEager, PolicyLazy} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			caller, callee := pair(t, func(_ uint32, o *Options) { o.Policy = policy })
			root := buildTree(t, caller, 3)
			err := callee.Register("probe", func(ctx *Ctx, args []Value) ([]Value, error) {
				ref, err := ctx.Runtime().Deref(args[0])
				if err != nil {
					return nil, err
				}
				for _, a := range accesses {
					if !strings.HasPrefix(a.name, "Set") { // an in-range write would change the tree
						if err := a.do(&ref, 0); err != nil {
							t.Errorf("%s(0): %v", a.name, err)
						}
					}
					for _, idx := range []int{-1, 1} { // both fields have Count 0: one element
						if err := a.do(&ref, idx); !errors.Is(err, ErrIndexRange) {
							t.Errorf("%s(%d) = %v, want ErrIndexRange", a.name, idx, err)
						}
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sessionCall(t, caller, 2, "probe", root)
			if got, err := sumTree(caller, root); err != nil || got != wantSum(3) {
				t.Fatalf("tree at home sums to %d, %v after the session; want %d", got, err, wantSum(3))
			}
		})
	}
}

// onResidentNode runs body inside a handler on the callee of a fresh pair,
// with visit doing a tree search's work on one node — Deref, Int, two Ptr
// reads and a SetInt — on a cached node already faulted in and written
// once, so every later visit finds it resident and writable. An error
// body returns fails the session, on the test's goroutine.
func onResidentNode(tb testing.TB, body func(visit func() error) error) {
	caller, callee := pair(tb, nil)
	root := buildTree(tb, caller, 3)
	err := callee.Register("visit", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt, v := ctx.Runtime(), args[0]
		visit := func() error {
			ref, err := rt.Deref(v)
			if err != nil {
				return err
			}
			d, err := ref.Int("data", 0)
			if err != nil {
				return err
			}
			if _, err := ref.Ptr("left", 0); err != nil {
				return err
			}
			if _, err := ref.Ptr("right", 0); err != nil {
				return err
			}
			return ref.SetInt("data", 0, d)
		}
		if err := visit(); err != nil {
			return nil, err
		}
		return nil, body(visit)
	})
	if err != nil {
		tb.Fatal(err)
	}
	sessionCall(tb, caller, 2, "visit", root)
}

// TestResidentVisitAllocs is the resident visit's allocation gate: once a
// node is cached, visiting it allocates nothing, as a local access would
// not (the paper's claim for cached remote data).
func TestResidentVisitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	onResidentNode(t, func(visit func() error) error {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := visit(); e != nil {
				err = e
			}
		})
		if allocs != 0 {
			t.Errorf("a resident visit allocates %.1f times; want 0", allocs)
		}
		return err
	})
}

// BenchmarkResidentVisit measures one resident visit: the per-node cost a
// tree search pays once its data is cached.
func BenchmarkResidentVisit(b *testing.B) {
	onResidentNode(b, func(visit func() error) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := visit(); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
}

// TestWriteMarksBeforeBytesChange: a fetch-path install holds the table
// for its whole batch and skips a resident row only if it is Touched, so
// a write must mark its datum before the bytes change. Marked after, a
// batch taking the table between the write and the mark reverted the
// write — a lost increment under prefetch or a streamed drain, seen as
// TestRecoveryTransientOnlySoak's seed 24. The first write to a clean
// cached page faults before its bytes land; the fault handler reads the
// row's mark there, for SetInt and for SetPtr.
func TestWriteMarksBeforeBytesChange(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Ref) error
	}{
		{"SetInt", func(r *Ref) error { return r.SetInt("data", 0, 99) }},
		{"SetPtr", func(r *Ref) error { return r.SetPtr("left", 0, NullPtr(nodeType)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin, cl := pair(t, nil)
			root := buildTree(t, origin, 2)
			if err := cl.BeginSession(); err != nil {
				t.Fatal(err)
			}
			v, err := cl.ImportPtr(root.LP)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := cl.Deref(v)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Int("data", 0); err != nil { // fetches the page, clean
				t.Fatal(err)
			}
			var marked []bool
			cl.space.SetHandler(func(f vmem.Fault) error {
				if e, ok := cl.table.LookupAddr(v.Addr); ok {
					marked = append(marked, e.Touched)
				}
				return cl.onFault(f)
			})
			if err := tc.write(&ref); err != nil {
				t.Fatal(err)
			}
			if len(marked) != 1 || !marked[0] {
				t.Errorf("Touched marks seen by the write's faults: %v; want one fault that sees the mark", marked)
			}
		})
	}
}
