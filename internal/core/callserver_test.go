package core

import (
	"runtime"
	"testing"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
)

// TestCallServersReused: CALLs run on parked call servers instead of a
// fresh goroutine each. Sequential sessions on a persistent pair reuse the
// callee's one server; a callback chain that re-enters a space while its
// first handler is blocked gets a second server rather than waiting for
// the first; and Close leaves no server behind.
func TestCallServersReused(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	nodeA, nodeB := rawAttach(t, net, 1), rawAttach(t, net, 2)
	before := runtime.NumGoroutine()
	a, err := New(Options{ID: 1, Node: nodeA, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := New(Options{ID: 2, Node: nodeB, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	// 200 one-CALL sessions, each faulting once on the caller's node.
	registerSumProc(t, b)
	root := buildTree(t, a, 1)
	for i := range 200 {
		ref, err := a.Deref(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, int64(i)); err != nil {
			t.Fatal(err)
		}
		if got := sessionCall(t, a, 2, "sumTree", root)[0].Int64(); got != int64(i) {
			t.Fatalf("session %d: sum = %d, want %d", i, got, i)
		}
	}
	if n := b.callServers.Load(); n != 1 {
		t.Errorf("200 sequential sessions started %d call servers on the callee; want 1", n)
	}

	// A→B→A→B: B's first handler stays blocked in its callback while the
	// nested call runs on a second server.
	if err := b.Register("b1", func(ctx *Ctx, args []Value) ([]Value, error) {
		return ctx.Call(ctx.Caller(), "a1", args)
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("a1", func(ctx *Ctx, args []Value) ([]Value, error) {
		return ctx.Call(ctx.Caller(), "b2", args)
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("b2", func(ctx *Ctx, args []Value) ([]Value, error) {
		return []Value{Int64Value(args[0].Int64() + 1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		if got := sessionCall(t, a, 2, "b1", Int64Value(41))[0].Int64(); got != 42 {
			t.Fatalf("chain round %d returned %d, want 42", round, got)
		}
		if n := b.callServers.Load(); n != 2 {
			t.Errorf("chain round %d: %d call servers started on B; want 2", round, n)
		}
		if n := a.callServers.Load(); n != 1 {
			t.Errorf("chain round %d: %d call servers started on A; want 1", round, n)
		}
	}

	_ = a.Close()
	_ = b.Close()
	waitFor(t, "the call servers to exit", func() bool { return runtime.NumGoroutine() <= before })
}
