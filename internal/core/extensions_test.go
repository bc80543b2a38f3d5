package core

import (
	"errors"
	"testing"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
)

// --- remote function pointers (§6 future work, implemented) ---

func TestFuncValueRequiresRegistration(t *testing.T) {
	caller, _ := pair(t, nil)
	if _, err := caller.FuncValue("nope"); !errors.Is(err, ErrUnknownProc) {
		t.Errorf("FuncValue of unregistered proc: %v", err)
	}
}

func TestFunctionPointerAsArgument(t *testing.T) {
	caller, callee := pair(t, nil)
	// The caller exports a local procedure and passes a POINTER TO IT to
	// the callee, which invokes it: the classic callback-by-function-
	// pointer idiom the paper says conventional RPC cannot express.
	err := caller.Register("double", func(ctx *Ctx, args []Value) ([]Value, error) {
		return []Value{Int64Value(args[0].Int64() * 2)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = callee.Register("apply", func(ctx *Ctx, args []Value) ([]Value, error) {
		fn, x := args[0], args[1]
		return ctx.Runtime().CallFunc(fn, []Value{x})
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := caller.FuncValue("double")
	if err != nil {
		t.Fatal(err)
	}
	res := sessionCall(t, caller, 2, "apply", fn, Int64Value(21))
	if res[0].Int64() != 42 {
		t.Errorf("apply(double, 21) = %d, want 42", res[0].Int64())
	}
}

func TestFunctionPointerForwardedToThirdSpace(t *testing.T) {
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
	err = a.Register("stamp", func(ctx *Ctx, args []Value) ([]Value, error) {
		return []Value{Int64Value(args[0].Int64() + 1000)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// B forwards the function pointer to C without inspecting it; C calls
	// it, reaching back to A. Location transparency of the capability.
	err = b.Register("forward", func(ctx *Ctx, args []Value) ([]Value, error) {
		return ctx.Call(3, "invoke", args)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Register("invoke", func(ctx *Ctx, args []Value) ([]Value, error) {
		return ctx.Runtime().CallFunc(args[0], []Value{Int64Value(7)})
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := a.FuncValue("stamp")
	if err != nil {
		t.Fatal(err)
	}
	res := sessionCall(t, a, 2, "forward", fn)
	if res[0].Int64() != 1007 {
		t.Errorf("forwarded function pointer result = %d, want 1007", res[0].Int64())
	}
}

func TestCallFuncLocalDispatch(t *testing.T) {
	caller, _ := pair(t, nil)
	err := caller.Register("inc", func(ctx *Ctx, args []Value) ([]Value, error) {
		return []Value{Int64Value(args[0].Int64() + 1)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := caller.FuncValue("inc")
	if err != nil {
		t.Fatal(err)
	}
	// Local function pointers dispatch without a session or network.
	res, err := caller.CallFunc(fn, []Value{Int64Value(1)})
	if err != nil || res[0].Int64() != 2 {
		t.Errorf("local CallFunc = %v, %v", res, err)
	}
	if got := caller.Stats().CallsSent; got != 0 {
		t.Errorf("local dispatch sent %d RPCs", got)
	}
}

func TestCallFuncOnNonFunc(t *testing.T) {
	caller, _ := pair(t, nil)
	if _, err := caller.CallFunc(Int64Value(1), nil); err == nil {
		t.Error("CallFunc on scalar succeeded")
	}
}

func TestFuncForbiddenInStructFields(t *testing.T) {
	d := &types.Desc{
		ID: 5, Name: "Bad",
		Fields: []types.Field{{Name: "f", Kind: types.Func}},
	}
	if err := d.Validate(); err == nil {
		t.Error("function pointer field accepted in struct")
	}
}

// --- closure shape hints (§6 future work, implemented) ---

func TestClosureHintValidation(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.SetClosureHint(nodeType, []string{"data"}); err == nil {
		t.Error("hint on scalar field accepted")
	}
	if err := caller.SetClosureHint(nodeType, []string{"missing"}); err == nil {
		t.Error("hint on unknown field accepted")
	}
	if err := caller.SetClosureHint(99, nil); err == nil {
		t.Error("hint on unknown type accepted")
	}
	if err := caller.SetClosureHint(nodeType, []string{"left"}); err != nil {
		t.Errorf("valid hint rejected: %v", err)
	}
}

func TestClosureHintShapesPrefetch(t *testing.T) {
	// A leftmost-path workload: with a "left"-only hint on the server
	// (data owner), the closure carries no right subtrees, so far fewer
	// bytes move for the same path visit.
	runPath := func(hint bool) uint64 {
		clock := &netsim.Clock{}
		stats := &netsim.Stats{}
		net, err := transport.NewNetwork(netsim.Model{}, clock, stats)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		reg := newTestRegistry(t)
		an, _ := net.Attach(1)
		bn, _ := net.Attach(2)
		owner, err := New(Options{ID: 1, Node: an, Registry: reg, ClosureSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = owner.Close() })
		if hint {
			if err := owner.SetClosureHint(nodeType, []string{"left"}); err != nil {
				t.Fatal(err)
			}
		}
		walker, err := New(Options{ID: 2, Node: bn, Registry: reg, ClosureSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = walker.Close() })
		err = walker.Register("leftPath", func(ctx *Ctx, args []Value) ([]Value, error) {
			rt := ctx.Runtime()
			n := int64(0)
			v := args[0]
			for !v.IsNullPtr() {
				ref, err := rt.Deref(v)
				if err != nil {
					return nil, err
				}
				n++
				if v, err = ref.Ptr("left", 0); err != nil {
					return nil, err
				}
			}
			return []Value{Int64Value(n)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		root := buildTree(t, owner, 10) // 1023 nodes, path depth 10
		if err := owner.BeginSession(); err != nil {
			t.Fatal(err)
		}
		res, err := owner.Call(2, "leftPath", []Value{root})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Int64() != 10 {
			t.Fatalf("path length = %d", res[0].Int64())
		}
		if err := owner.EndSession(); err != nil {
			t.Fatal(err)
		}
		return stats.Bytes()
	}
	unhinted := runPath(false)
	hinted := runPath(true)
	if hinted >= unhinted {
		t.Errorf("hinted closure moved %d bytes, unhinted %d; hint should reduce traffic", hinted, unhinted)
	}
}

func TestClosureHintEmptyStopsTraversal(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) {
		o.ClosureSize = 1 << 20
	})
	for _, rt := range []*Runtime{caller, callee} {
		if err := rt.SetClosureHint(nodeType, []string{}); err != nil {
			t.Fatal(err)
		}
	}
	registerSumProc(t, callee)
	root := buildTree(t, caller, 5)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if res[0].Int64() != wantSum(5) {
		t.Errorf("sum with traversal-stopping hint = %d", res[0].Int64())
	}
	// With traversal stopped at every node, the huge closure budget is
	// useless: fetches stay frequent (still page-batched, but no
	// prefetch beyond the faulted pages' entries).
	if callee.Stats().FetchesSent == 1 {
		t.Error("closure still prefetched despite empty hint")
	}
}
