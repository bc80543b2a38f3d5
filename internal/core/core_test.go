package core

import (
	"errors"
	"fmt"
	"testing"

	"smartrpc/internal/arch"
	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
)

const nodeType types.ID = 1

// newTestRegistry builds the paper's TreeNode schema.
func newTestRegistry(t testing.TB) *types.Registry {
	t.Helper()
	r := types.NewRegistry()
	r.MustRegister(&types.Desc{
		ID:   nodeType,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: nodeType},
			{Name: "right", Kind: types.Ptr, Elem: nodeType},
			{Name: "data", Kind: types.Int64},
		},
	})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

// pair builds two connected runtimes (caller=1, callee=2) with the given
// option mutations applied to both.
func pair(t testing.TB, mut func(id uint32, o *Options)) (*Runtime, *Runtime) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id uint32) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg}
		if mut != nil {
			mut(id, &o)
		}
		rt, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	return mk(1), mk(2)
}

// buildTree creates a complete binary tree of depth levels in rt's heap,
// with node values assigned in preorder starting at 1. Returns the root.
func buildTree(t testing.TB, rt *Runtime, levels int) Value {
	t.Helper()
	counter := int64(0)
	var build func(level int) Value
	build = func(level int) Value {
		if level == 0 {
			return NullPtr(nodeType)
		}
		v, err := rt.NewObject(nodeType)
		if err != nil {
			t.Fatal(err)
		}
		counter++
		ref, err := rt.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, counter); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("left", 0, build(level-1)); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("right", 0, build(level-1)); err != nil {
			t.Fatal(err)
		}
		return v
	}
	return build(levels)
}

// sumTree walks the whole tree through the Ref API and sums the data
// fields.
func sumTree(rt *Runtime, root Value) (int64, error) {
	if root.IsNullPtr() {
		return 0, nil
	}
	ref, err := rt.Deref(root)
	if err != nil {
		return 0, err
	}
	v, err := ref.Int("data", 0)
	if err != nil {
		return 0, err
	}
	left, err := ref.Ptr("left", 0)
	if err != nil {
		return 0, err
	}
	ls, err := sumTree(rt, left)
	if err != nil {
		return 0, err
	}
	right, err := ref.Ptr("right", 0)
	if err != nil {
		return 0, err
	}
	rs, err := sumTree(rt, right)
	if err != nil {
		return 0, err
	}
	return v + ls + rs, nil
}

func registerSumProc(t testing.TB, callee *Runtime) {
	t.Helper()
	err := callee.Register("sumTree", func(ctx *Ctx, args []Value) ([]Value, error) {
		if len(args) != 1 {
			return nil, errors.New("want 1 arg")
		}
		total, err := sumTree(ctx.Runtime(), args[0])
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(total)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func sessionCall(t testing.TB, caller *Runtime, target uint32, proc string, args ...Value) []Value {
	t.Helper()
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res, err := caller.Call(target, proc, args)
	if err != nil {
		t.Fatalf("call %s: %v", proc, err)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatalf("end session: %v", err)
	}
	return res
}

func wantSum(levels int) int64 {
	n := int64(1)<<levels - 1
	return n * (n + 1) / 2
}

func TestRemoteTreeSumSmart(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 7) // 127 nodes
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(7) {
		t.Errorf("remote sum = %d, want %d", got, wantSum(7))
	}
	// The callee actually cached data and faulted at page grain.
	st := callee.Stats()
	if st.Faults == 0 || st.FetchesSent == 0 || st.ItemsInstalled == 0 {
		t.Errorf("callee stats show no caching activity: %+v", st)
	}
}

func TestRemoteTreeSumEager(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.Policy = PolicyEager })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 6)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(6) {
		t.Errorf("remote sum = %d, want %d", got, wantSum(6))
	}
	// Fully eager: the whole tree went with the call; no faults, no
	// fetch callbacks.
	st := callee.Stats()
	if st.FetchesSent != 0 {
		t.Errorf("eager callee sent %d fetches, want 0", st.FetchesSent)
	}
	if st.ItemsInstalled != uint64(1)<<6-1 {
		t.Errorf("eager callee installed %d items, want %d", st.ItemsInstalled, 1<<6-1)
	}
}

func TestRemoteTreeSumLazy(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.Policy = PolicyLazy })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 5)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(5) {
		t.Errorf("remote sum = %d, want %d", got, wantSum(5))
	}
	// Fully lazy: callbacks scale with dereferences (3 field reads per
	// node), no caching at all.
	st := callee.Stats()
	if st.ItemsInstalled != 0 {
		t.Errorf("lazy callee cached %d items", st.ItemsInstalled)
	}
	nodes := uint64(1)<<5 - 1
	if st.FetchesSent != nodes {
		t.Errorf("lazy callee sent %d callbacks, want %d (one per dereference)", st.FetchesSent, nodes)
	}
}

func TestLazyRepeatedDereferenceCallsBackEveryTime(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.Policy = PolicyLazy })
	err := callee.Register("touchTwice", func(ctx *Ctx, args []Value) ([]Value, error) {
		// Two dereferences of the same pointer: two callbacks, no cache.
		for i := 0; i < 2; i++ {
			ref, err := ctx.Runtime().Deref(args[0])
			if err != nil {
				return nil, err
			}
			if _, err := ref.Int("data", 0); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	sessionCall(t, caller, 2, "touchTwice", root)
	if got := callee.Stats().FetchesSent; got != 2 {
		t.Errorf("repeated dereference sent %d callbacks, want 2 (no caching)", got)
	}
}

func TestSmartCachingNoRefetch(t *testing.T) {
	caller, callee := pair(t, nil)
	err := callee.Register("touchTwice", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		for i := 0; i < 10; i++ {
			if _, err := ref.Int("data", 0); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	sessionCall(t, caller, 2, "touchTwice", root)
	if got := callee.Stats().FetchesSent; got != 1 {
		t.Errorf("10 dereferences sent %d fetches, want 1 (cached)", got)
	}
}

func TestSmartClosurePrefetchReducesFetches(t *testing.T) {
	run := func(closure int) uint64 {
		caller, callee := pair(t, func(id uint32, o *Options) { o.ClosureSize = closure })
		registerSumProc(t, callee)
		root := buildTree(t, caller, 8) // 255 nodes
		sessionCall(t, caller, 2, "sumTree", root)
		return callee.Stats().FetchesSent
	}
	small := run(64)
	big := run(16384)
	if big >= small {
		t.Errorf("closure 16384 sent %d fetches, closure 64 sent %d; bigger closure should fetch less", big, small)
	}
	if big != 1 {
		t.Errorf("closure larger than tree sent %d fetches, want 1", big)
	}
}

func TestUpdateWritesBackAtSessionEnd(t *testing.T) {
	caller, callee := pair(t, nil)
	err := callee.Register("double", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		var walk func(v Value) error
		walk = func(v Value) error {
			if v.IsNullPtr() {
				return nil
			}
			ref, err := rt.Deref(v)
			if err != nil {
				return err
			}
			d, err := ref.Int("data", 0)
			if err != nil {
				return err
			}
			if err := ref.SetInt("data", 0, d*2); err != nil {
				return err
			}
			l, err := ref.Ptr("left", 0)
			if err != nil {
				return err
			}
			if err := walk(l); err != nil {
				return err
			}
			r, err := ref.Ptr("right", 0)
			if err != nil {
				return err
			}
			return walk(r)
		}
		return nil, walk(args[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 5)
	sessionCall(t, caller, 2, "double", root)
	// After session end, the caller's original tree must show the
	// modifications (write-back happened).
	got, err := sumTree(caller, root)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * wantSum(5); got != want {
		t.Errorf("after remote update, local sum = %d, want %d", got, want)
	}
}

func TestCalleeSeesOwnWritesImmediately(t *testing.T) {
	caller, callee := pair(t, nil)
	err := callee.Register("writeRead", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 4242); err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(v)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	res := sessionCall(t, caller, 2, "writeRead", root)
	if res[0].Int64() != 4242 {
		t.Errorf("callee read back %d after write, want 4242", res[0].Int64())
	}
}

func TestNestedRPCDirtyDataMigrates(t *testing.T) {
	// Three spaces: A owns a node; A calls B which modifies it, then B
	// calls C which reads it. C must see B's modification even though the
	// data's origin A has not yet been written back (§3.4's thread-C
	// scenario).
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id uint32) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: id, Node: node, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	a, b, c := mk(1), mk(2), mk(3)

	err = c.Register("readNode", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(v)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = b.Register("modifyThenForward", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 777); err != nil {
			return nil, err
		}
		// Nested RPC to C, passing the same pointer onward.
		return ctx.Call(3, "readNode", []Value{ref.Value()})
	})
	if err != nil {
		t.Fatal(err)
	}

	root := buildTree(t, a, 1)
	res := sessionCall(t, a, 2, "modifyThenForward", root)
	if res[0].Int64() != 777 {
		t.Errorf("space C read %d, want 777 (modified data must travel with control)", res[0].Int64())
	}
	// And A's original is updated after session end.
	refA, err := a.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	v, err := refA.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Errorf("origin value after session = %d, want 777", v)
	}
}

func TestCallbackCalleeCallsCaller(t *testing.T) {
	caller, callee := pair(t, nil)
	err := caller.Register("help", func(ctx *Ctx, args []Value) ([]Value, error) {
		return []Value{Int64Value(args[0].Int64() + 1)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = callee.Register("work", func(ctx *Ctx, args []Value) ([]Value, error) {
		// Callback into the caller.
		return ctx.Call(ctx.Caller(), "help", []Value{Int64Value(41)})
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sessionCall(t, caller, 2, "work")
	if res[0].Int64() != 42 {
		t.Errorf("callback result = %d, want 42", res[0].Int64())
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	caller, _ := pair(t, nil)
	if _, err := caller.Call(2, "x", nil); !errors.Is(err, ErrNoSession) {
		t.Errorf("call without session: %v", err)
	}
	if err := caller.EndSession(); !errors.Is(err, ErrNoSession) {
		t.Errorf("end without begin: %v", err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); !errors.Is(err, ErrSessionBusy) {
		t.Errorf("double begin: %v", err)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownProcedure(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	defer caller.EndSession()
	if _, err := caller.Call(2, "nope", nil); err == nil {
		t.Error("call to unknown procedure succeeded")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	caller, callee := pair(t, nil)
	boom := errors.New("handler exploded")
	if err := callee.Register("bad", func(*Ctx, []Value) ([]Value, error) { return nil, boom }); err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	defer caller.EndSession()
	_, err := caller.Call(2, "bad", nil)
	if err == nil || !contains(err.Error(), "handler exploded") {
		t.Errorf("remote error = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && (s[:len(sub)] == sub || contains(s[1:], sub))))
}

func TestRegisterValidation(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.Register("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	if err := caller.Register("p", func(*Ctx, []Value) ([]Value, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := caller.Register("p", func(*Ctx, []Value) ([]Value, error) { return nil, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestInvalidationClearsCalleeCache(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "sumTree", root)
	// The end-of-session invalidation demotes the callee's cache: rows
	// may survive as warm stale copies, but nothing stays resident.
	if cs := callee.CacheStats(); cs.ResidentEntries != 0 || cs.ResidentBytes != 0 {
		t.Errorf("callee cache still resident after session end: %+v", cs)
	}
	if callee.Session() != 0 {
		t.Errorf("callee still in session %#x", callee.Session())
	}
	// A fresh session works end to end after invalidation.
	res := sessionCall(t, caller, 2, "sumTree", root)
	if res[0].Int64() != wantSum(4) {
		t.Errorf("second session sum = %d", res[0].Int64())
	}
}

func TestInvalidationDiscardsCacheWhenWarmDisabled(t *testing.T) {
	// With the warm cache off, session-end invalidation is the seed
	// behavior: the callee's table empties outright.
	caller, callee := pair(t, func(id uint32, o *Options) { o.DisableWarmCache = true })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "sumTree", root)
	if callee.Table().Len() != 0 {
		t.Errorf("callee table has %d entries after session end", callee.Table().Len())
	}
	res := sessionCall(t, caller, 2, "sumTree", root)
	if res[0].Int64() != wantSum(4) {
		t.Errorf("second session sum = %d", res[0].Int64())
	}
}

func TestScalarArgsRoundTrip(t *testing.T) {
	caller, callee := pair(t, nil)
	err := callee.Register("echo", func(ctx *Ctx, args []Value) ([]Value, error) {
		return args, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sessionCall(t, caller, 2, "echo",
		Int64Value(-5), Uint64Value(7), Float64Value(2.5), BoolValue(true))
	if res[0].Int64() != -5 || res[1].Uint64() != 7 || res[2].Float64() != 2.5 || !res[3].Bool() {
		t.Errorf("echo = %+v", res)
	}
}

func TestReturnedPointerUsableInSession(t *testing.T) {
	caller, callee := pair(t, nil)
	// The callee allocates a node in its own heap and returns a pointer:
	// the caller dereferences it transparently.
	err := callee.Register("makeNode", func(ctx *Ctx, args []Value) ([]Value, error) {
		v, err := ctx.Runtime().NewObject(nodeType)
		if err != nil {
			return nil, err
		}
		ref, err := ctx.Runtime().Deref(v)
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 31337); err != nil {
			return nil, err
		}
		return []Value{v}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res, err := caller.Call(2, "makeNode", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := caller.Deref(res[0])
	if err != nil {
		t.Fatal(err)
	}
	v, err := ref.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 31337 {
		t.Errorf("remote node data = %d", v)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousArchitectures(t *testing.T) {
	// Caller is a 32-bit big-endian SPARC; callee a 64-bit little-endian
	// machine. The tree must still sum correctly (XDR conversion + layout
	// translation).
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	nodeA, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	caller, err := New(Options{ID: 1, Node: nodeA, Registry: reg, Profile: arch.SPARC32()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = caller.Close() })
	callee, err := New(Options{ID: 2, Node: nodeB, Registry: reg, Profile: arch.Alpha64()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = callee.Close() })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 6)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(6) {
		t.Errorf("heterogeneous sum = %d, want %d", got, wantSum(6))
	}
}

func TestHeterogeneousUpdateWriteBack(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	nodeA, _ := net.Attach(1)
	nodeB, _ := net.Attach(2)
	caller, err := New(Options{ID: 1, Node: nodeA, Registry: reg, Profile: arch.M68K32()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = caller.Close() })
	callee, err := New(Options{ID: 2, Node: nodeB, Registry: reg, Profile: arch.Alpha64()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = callee.Close() })
	err = callee.Register("set", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		return nil, ref.SetInt("data", 0, -123456789)
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	sessionCall(t, caller, 2, "set", root)
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ref.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != -123456789 {
		t.Errorf("cross-architecture write-back = %d, want -123456789", v)
	}
}

func TestExtendedMallocRemote(t *testing.T) {
	caller, callee := pair(t, nil)
	// The callee creates a node in the CALLER's space (extended_malloc),
	// links it, and the caller sees it after the session.
	err := callee.Register("append", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		nv, err := rt.ExtendedMalloc(ctx.Caller(), nodeType)
		if err != nil {
			return nil, err
		}
		nref, err := rt.Deref(nv)
		if err != nil {
			return nil, err
		}
		if err := nref.SetInt("data", 0, 999); err != nil {
			return nil, err
		}
		rootRef, err := rt.Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := rootRef.SetPtr("left", 0, nv); err != nil {
			return nil, err
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1) // leaf node, no children
	sessionCall(t, caller, 2, "append", root)

	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	left, err := ref.Ptr("left", 0)
	if err != nil {
		t.Fatal(err)
	}
	if left.IsNullPtr() {
		t.Fatal("appended child missing after session")
	}
	if !caller.Space().InHeap(left.Addr) {
		t.Errorf("extended_malloc'd node at %#x not in caller's heap", uint32(left.Addr))
	}
	lref, err := caller.Deref(left)
	if err != nil {
		t.Fatal(err)
	}
	v, err := lref.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 999 {
		t.Errorf("appended node data = %d, want 999", v)
	}
}

func TestExtendedMallocBatching(t *testing.T) {
	caller, callee := pair(t, nil)
	const n = 50
	err := callee.Register("makeMany", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		prev := NullPtr(nodeType)
		for i := 0; i < n; i++ {
			v, err := rt.ExtendedMalloc(ctx.Caller(), nodeType)
			if err != nil {
				return nil, err
			}
			ref, err := rt.Deref(v)
			if err != nil {
				return nil, err
			}
			if err := ref.SetInt("data", 0, int64(i)); err != nil {
				return nil, err
			}
			if err := ref.SetPtr("left", 0, prev); err != nil {
				return nil, err
			}
			prev = v
		}
		if rt.PendingAllocOps() != n {
			return nil, fmt.Errorf("batch has %d ops mid-handler, want %d", rt.PendingAllocOps(), n)
		}
		return []Value{prev}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res, err := caller.Call(2, "makeMany", nil)
	if err != nil {
		t.Fatal(err)
	}
	// One batched alloc message total, not n.
	if got := callee.Stats().AllocBatches; got != 1 {
		t.Errorf("alloc batches = %d, want 1 (batched per control transfer)", got)
	}
	// The list is walkable from the caller.
	count := 0
	for v := res[0]; !v.IsNullPtr(); {
		ref, err := caller.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		count++
		v, err = ref.Ptr("left", 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if count != n {
		t.Errorf("walked %d nodes, want %d", count, n)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedFreeCancelsProvisional(t *testing.T) {
	caller, callee := pair(t, nil)
	err := callee.Register("allocFree", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		v, err := rt.ExtendedMalloc(ctx.Caller(), nodeType)
		if err != nil {
			return nil, err
		}
		if err := rt.ExtendedFree(v); err != nil {
			return nil, err
		}
		if rt.PendingAllocOps() != 0 {
			return nil, fmt.Errorf("batch not canceled: %d ops", rt.PendingAllocOps())
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	heapBefore := caller.Space().HeapInUse()
	sessionCall(t, caller, 2, "allocFree")
	if got := caller.Space().HeapInUse(); got != heapBefore {
		t.Errorf("caller heap grew by %d after canceled alloc", got-heapBefore)
	}
}

func TestExtendedFreeRemote(t *testing.T) {
	caller, callee := pair(t, nil)
	root := buildTree(t, caller, 1)
	err := callee.Register("freeIt", func(ctx *Ctx, args []Value) ([]Value, error) {
		return nil, ctx.Runtime().ExtendedFree(args[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	heapBefore := caller.Space().HeapInUse()
	sessionCall(t, caller, 2, "freeIt", root)
	if got := caller.Space().HeapInUse(); got >= heapBefore {
		t.Errorf("caller heap %d not reduced from %d by remote free", got, heapBefore)
	}
}

func TestMixedAllocationPolicy(t *testing.T) {
	// PolicyMixed still yields correct results (it only changes page
	// grouping).
	caller, callee := pair(t, func(id uint32, o *Options) { o.AllocPolicy = swizzle.PolicyMixed })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 6)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(6) {
		t.Errorf("mixed policy sum = %d, want %d", got, wantSum(6))
	}
}

func TestDFSTraversal(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.Traversal = TraverseDFS })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 6)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(6) {
		t.Errorf("DFS closure sum = %d, want %d", got, wantSum(6))
	}
}

func TestWriteBackCoherenceAblation(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.Coherence = CoherenceWriteBack })
	err := callee.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return nil, ref.SetInt("data", 0, d+100)
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	sessionCall(t, caller, 2, "bump", root)
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ref.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 101 {
		t.Errorf("write-back coherence result = %d, want 101", v)
	}
	if callee.Stats().WriteBackMsgs == 0 {
		t.Error("ablation sent no write-back messages")
	}
}

func TestOptionsValidation(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	node, _ := net.Attach(9)
	reg := types.NewRegistry()
	cases := []Options{
		{},
		{ID: 1},
		{ID: 1, Node: node},
		{ID: 0x80000001, Node: node, Registry: reg},
	}
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 5)
	sessionCall(t, caller, 2, "sumTree", root)
	cs := caller.Stats()
	if cs.CallsSent != 1 {
		t.Errorf("caller CallsSent = %d", cs.CallsSent)
	}
	if cs.FetchesServed == 0 {
		t.Errorf("caller served no fetches")
	}
	ks := callee.Stats()
	if ks.CallsServed != 1 || ks.BytesInstalled == 0 {
		t.Errorf("callee stats = %+v", ks)
	}
}

func TestPageFaultOutsideSessionFails(t *testing.T) {
	caller, callee := pair(t, nil)
	var leaked Value
	err := callee.Register("leak", func(ctx *Ctx, args []Value) ([]Value, error) {
		leaked = args[0]
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 2)
	sessionCall(t, caller, 2, "leak", root)
	// After the session the remote pointer has no meaning (§3.1); use of
	// the stale Ref fails rather than returning garbage.
	if leaked.Kind != types.Ptr {
		t.Fatal("handler did not capture pointer")
	}
	ref, err := callee.Deref(leaked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Int("data", 0); err == nil {
		t.Error("stale remote pointer dereference succeeded after session end")
	}
}

func TestConcurrentSessionRejected(t *testing.T) {
	// A third space cannot call the callee while it is in another
	// session.
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id uint32) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: id, Node: node, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	a, b, c := mk(1), mk(2), mk(3)
	block := make(chan struct{})
	started := make(chan struct{})
	err = b.Register("wait", func(*Ctx, []Value) ([]Value, error) {
		close(started)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BeginSession(); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Call(2, "wait", nil)
		errCh <- err
	}()
	<-started
	if err := c.BeginSession(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Call(2, "anything", nil)
	if err == nil {
		t.Error("call into busy session succeeded")
	}
	close(block)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if err := a.EndSession(); err != nil {
		t.Fatal(err)
	}
}

func TestDeepNestedChainAcrossFiveSpaces(t *testing.T) {
	// A pointer travels A→B→C→D→E through nested RPCs; every space bumps
	// the counter in place. The final value must reflect all hops and be
	// written back to A at session end.
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	const spaces = 5
	rts := make([]*Runtime, spaces)
	for i := range rts {
		node, err := net.Attach(uint32(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: uint32(i + 1), Node: node, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rts[i] = rt
	}
	for i := 1; i < spaces; i++ {
		next := uint32(i + 2) // next space in the chain, or none
		last := i == spaces-1
		err := rts[i].Register("hop", func(ctx *Ctx, args []Value) ([]Value, error) {
			ref, err := ctx.Runtime().Deref(args[0])
			if err != nil {
				return nil, err
			}
			d, err := ref.Int("data", 0)
			if err != nil {
				return nil, err
			}
			if err := ref.SetInt("data", 0, d+1); err != nil {
				return nil, err
			}
			if last {
				return []Value{Int64Value(d + 1)}, nil
			}
			return ctx.Call(next, "hop", args)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	owner := rts[0]
	node, err := owner.NewObject(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res, err := owner.Call(2, "hop", []Value{node})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int64() != spaces-1 {
		t.Errorf("deepest space saw %d, want %d", res[0].Int64(), spaces-1)
	}
	if err := owner.EndSession(); err != nil {
		t.Fatal(err)
	}
	ref, err := owner.Deref(node)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ref.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != spaces-1 {
		t.Errorf("owner sees %d after session, want %d", d, spaces-1)
	}
	// The invalidation multicast reached everyone: nothing resident
	// anywhere (warm stale rows may remain for revalidation).
	for i, rt := range rts {
		if cs := rt.CacheStats(); cs.ResidentEntries != 0 {
			t.Errorf("space %d retains %d resident cache entries after session end", i+1, cs.ResidentEntries)
		}
	}
}

// blobPair builds an owner holding one Blob{pay [10000]uint8; sum int64}
// — three 4 KiB pages in a cache — and a worker serving two procedures
// over it: "checksum" reads pay[first] before anything else, sums pay and
// stores the sum in the blob; "stamp" writes sum before reading anything
// and returns pay[0]+pay[9999].
func blobPair(t *testing.T) (owner *Runtime, blob Value, ref Ref, want int64) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	reg.MustRegister(&types.Desc{
		ID:   7,
		Name: "Blob",
		Fields: []types.Field{
			{Name: "pay", Kind: types.Uint8, Count: 10000},
			{Name: "sum", Kind: types.Int64},
		},
	})
	an, _ := net.Attach(1)
	bn, _ := net.Attach(2)
	owner, err = New(Options{ID: 1, Node: an, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = owner.Close() })
	worker, err := New(Options{ID: 2, Node: bn, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = worker.Close() })
	err = worker.Register("checksum", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		if _, err := ref.Uint("pay", int(args[1].Int64())); err != nil {
			return nil, err
		}
		var sum int64
		for i := 0; i < 10000; i++ {
			v, err := ref.Uint("pay", i)
			if err != nil {
				return nil, err
			}
			sum += int64(v)
		}
		if err := ref.SetInt("sum", 0, sum); err != nil {
			return nil, err
		}
		return []Value{Int64Value(sum)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = worker.Register("stamp", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("sum", 0, args[1].Int64()); err != nil {
			return nil, err
		}
		lo, err := ref.Uint("pay", 0)
		if err != nil {
			return nil, err
		}
		hi, err := ref.Uint("pay", 9999)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(int64(lo + hi))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err = owner.NewObject(7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = owner.Deref(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		v := uint64(i%251) + 1
		want += int64(v)
		if err := ref.SetUint("pay", i, v); err != nil {
			t.Fatal(err)
		}
	}
	return owner, blob, ref, want
}

func TestLargeObjectSpanningManyPages(t *testing.T) {
	// An object larger than a page is fetched and written back intact.
	owner, blob, ref, want := blobPair(t)
	res := sessionCall(t, owner, 2, "checksum", blob, Int64Value(0))
	if res[0].Int64() != want {
		t.Errorf("remote checksum = %d, want %d", res[0].Int64(), want)
	}
	got, err := ref.Int("sum", 0)
	if err != nil || got != want {
		t.Errorf("written-back sum = %d, %v; want %d", got, err, want)
	}
}

// TestLargeObjectFirstTouchedAtItsTail: the first access to a datum that
// spans pages may land on any of them, and the fault there must find the
// datum's allocation table row.
func TestLargeObjectFirstTouchedAtItsTail(t *testing.T) {
	t.Run("read", func(t *testing.T) {
		owner, blob, ref, want := blobPair(t)
		res := sessionCall(t, owner, 2, "checksum", blob, Int64Value(9000))
		if res[0].Int64() != want {
			t.Errorf("remote checksum = %d, want %d", res[0].Int64(), want)
		}
		if got, err := ref.Int("sum", 0); err != nil || got != want {
			t.Errorf("written-back sum = %d, %v; want %d", got, err, want)
		}
	})
	t.Run("write", func(t *testing.T) {
		owner, blob, ref, _ := blobPair(t)
		res := sessionCall(t, owner, 2, "stamp", blob, Int64Value(-7))
		// pay[0] = 1, pay[9999] = 9999%251+1: the write fault brought the
		// whole datum in, not a zeroed tail page.
		if got, want := res[0].Int64(), int64(1+9999%251+1); got != want {
			t.Errorf("pay[0]+pay[9999] seen after the tail write = %d, want %d", got, want)
		}
		if got, err := ref.Int("sum", 0); err != nil || got != -7 {
			t.Errorf("written-back sum = %d, %v; want -7", got, err)
		}
		if got, err := ref.Uint("pay", 5000); err != nil || got != 5000%251+1 {
			t.Errorf("pay[5000] at home after the write-back = %d, %v; want %d", got, err, 5000%251+1)
		}
	})
	t.Run("warm", func(t *testing.T) {
		// Session 1 leaves the datum warm on the worker; the owner then
		// changes a byte on the last page, and session 2 touches that page
		// first: the revalidation has to find the row from there.
		owner, blob, ref, want := blobPair(t)
		if res := sessionCall(t, owner, 2, "checksum", blob, Int64Value(0)); res[0].Int64() != want {
			t.Fatalf("first checksum = %d, want %d", res[0].Int64(), want)
		}
		if err := ref.SetUint("pay", 9500, 255); err != nil {
			t.Fatal(err)
		}
		want += 255 - (9500%251 + 1)
		res := sessionCall(t, owner, 2, "checksum", blob, Int64Value(9500))
		if res[0].Int64() != want {
			t.Errorf("second checksum = %d, want %d", res[0].Int64(), want)
		}
		if got, err := ref.Int("sum", 0); err != nil || got != want {
			t.Errorf("written-back sum = %d, %v; want %d", got, err, want)
		}
	})
}

func TestLazyWritePath(t *testing.T) {
	// Lazy mode writes: read-modify-write-back per set, including pointer
	// stores.
	caller, callee := pair(t, func(id uint32, o *Options) { o.Policy = PolicyLazy })
	err := callee.Register("rewire", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		ref, err := rt.Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 4040); err != nil {
			return nil, err
		}
		// Point left at the second node remotely.
		if err := ref.SetPtr("left", 0, args[1]); err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0) // stale Ref copy was refreshed by the set
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(d)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a := buildTree(t, caller, 1)
	b := buildTree(t, caller, 1)
	res := sessionCall(t, caller, 2, "rewire", a, b)
	if res[0].Int64() != 4040 {
		t.Errorf("lazy read-after-write = %d", res[0].Int64())
	}
	// Writes landed at the origin immediately (lazy has no session cache).
	ref, err := caller.Deref(a)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ref.Int("data", 0)
	if err != nil || d != 4040 {
		t.Fatalf("origin data = %d, %v", d, err)
	}
	l, err := ref.Ptr("left", 0)
	if err != nil {
		t.Fatal(err)
	}
	// In lazy mode pointer values carry the long-pointer identity.
	if l.IsNullPtr() || l.LP.Addr != b.Addr {
		t.Errorf("origin left = %+v, want node b at %#x", l, uint32(b.Addr))
	}
}

func TestFloatFieldAccessors(t *testing.T) {
	caller, callee := pair(t, nil)
	reg := caller.Registry()
	reg.MustRegister(&types.Desc{
		ID:   20,
		Name: "Point",
		Fields: []types.Field{
			{Name: "x", Kind: types.Float64},
			{Name: "y", Kind: types.Float32},
		},
	})
	err := callee.Register("swap", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		x, err := ref.Float64Field("x", 0)
		if err != nil {
			return nil, err
		}
		return nil, ref.SetFloat64Field("x", 0, -x)
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := caller.NewObject(20)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := caller.Deref(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Type().Name != "Point" {
		t.Errorf("Ref.Type() = %q", ref.Type().Name)
	}
	if err := ref.SetFloat64Field("x", 0, 2.75); err != nil {
		t.Fatal(err)
	}
	sessionCall(t, caller, 2, "swap", p)
	x, err := ref.Float64Field("x", 0)
	if err != nil || x != -2.75 {
		t.Errorf("x after remote swap = %v, %v", x, err)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	caller, _ := pair(t, nil)
	if caller.ID() != 1 {
		t.Errorf("ID = %d", caller.ID())
	}
	if caller.Registry() == nil {
		t.Error("Registry nil")
	}
	if caller.Policy() != PolicySmart {
		t.Errorf("Policy = %v", caller.Policy())
	}
	if caller.ClosureSize() != 8192 {
		t.Errorf("ClosureSize = %d", caller.ClosureSize())
	}
	for _, p := range []Policy{PolicySmart, PolicyEager, PolicyLazy, Policy(9)} {
		if p.String() == "" {
			t.Errorf("Policy(%d).String empty", int(p))
		}
	}
}

func TestSequentialSessionsRoleSwap(t *testing.T) {
	// A grounds a session calling B; then B grounds a session calling A.
	a, b := pair(t, nil)
	registerSumProc(t, b)
	registerSumProc(t, a)
	rootA := buildTree(t, a, 4)
	res := sessionCall(t, a, 2, "sumTree", rootA)
	if res[0].Int64() != wantSum(4) {
		t.Fatalf("first session sum = %d", res[0].Int64())
	}
	rootB := buildTree(t, b, 5)
	if err := b.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res, err := b.Call(1, "sumTree", []Value{rootB})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EndSession(); err != nil {
		t.Fatal(err)
	}
	if res[0].Int64() != wantSum(5) {
		t.Errorf("role-swapped session sum = %d, want %d", res[0].Int64(), wantSum(5))
	}
}

func TestCacheStatsWorkingSet(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 6) // 63 nodes
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "sumTree", []Value{root}); err != nil {
		t.Fatal(err)
	}
	// Mid-session: the callee's working set holds the whole tree.
	cs := callee.CacheStats()
	if cs.ResidentEntries != 63 {
		t.Errorf("resident entries = %d, want 63", cs.ResidentEntries)
	}
	if cs.ResidentBytes != 63*16 {
		t.Errorf("resident bytes = %d, want %d", cs.ResidentBytes, 63*16)
	}
	if cs.DirtyPages != 0 {
		t.Errorf("dirty pages = %d on a read-only workload", cs.DirtyPages)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	// After the session nothing is resident: the rows survive only as
	// warm stale copies awaiting revalidation.
	cs = callee.CacheStats()
	if cs.ResidentEntries != 0 || cs.ResidentBytes != 0 || cs.DirtyPages != 0 {
		t.Errorf("working set survives session end: %+v", cs)
	}
}
