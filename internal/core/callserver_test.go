package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
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

// TestFullServeStripeKeepsDispatching: requests that arrive while their
// stripe's worker is held wait in the stripe's queue, which grows past
// its first ring, instead of blocking the dispatcher. Meanwhile a reply
// from a third space still reaches the waiter it is for; once the worker
// is released, every request is served, in arrival order; and Close
// returns while the worker is still held.
func TestFullServeStripeKeepsDispatching(t *testing.T) {
	const n = 33 // one held, and a queue that grows twice behind it
	for _, closeHeld := range []bool{false, true} {
		net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		peer, third := rawAttach(t, net, 1), rawAttach(t, net, 3)
		origin := newRuntimeOnNet(t, net, 2)
		origin.serveMu.Lock() // holds the worker serving peer's first FETCH
		held := true
		release := func() {
			if held {
				held = false
				origin.serveMu.Unlock()
			}
		}
		t.Cleanup(release)
		empty := wire.FetchPayload{}
		for seq := uint64(1); seq <= n; seq++ {
			if err := peer.Send(sealed(wire.Message{Kind: wire.KindFetch, Seq: seq, To: 2, Payload: empty.Encode()})); err != nil {
				t.Fatal(err)
			}
		}
		stripe := &origin.serve[1%serveWorkers]
		waitFor(t, "the stripe to queue requests", func() bool { return queued(stripe) == n-1 })

		if closeHeld {
			closed := make(chan error, 1)
			go func() { closed <- origin.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return while a serve worker was held")
			}
			continue
		}

		answered := make(chan error, 1)
		go func() {
			reply, err := origin.roundTrip(wire.Message{Kind: wire.KindInvalidate, To: 3, Payload: []byte{}})
			if err == nil && reply.Kind != wire.KindInvalidateAck {
				err = fmt.Errorf("reply of kind %v", reply.Kind)
			}
			answered <- err
		}()
		req, err := third.Recv()
		if err != nil || req.Kind != wire.KindInvalidate {
			t.Fatalf("the third space received %v, %v; want an invalidate", req.Kind, err)
		}
		if err := third.Send(sealed(wire.Message{Kind: wire.KindInvalidateAck, Session: req.Session, Seq: req.Seq, To: 2, Payload: []byte{}})); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-answered:
			if err != nil {
				t.Fatalf("round trip with a full stripe: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a reply did not reach its waiter while a stripe was full")
		}

		release()
		for seq := uint64(1); seq <= n; seq++ {
			m, err := peer.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind != wire.KindFetchReply || m.Seq != seq {
				t.Fatalf("reply %d is a %v for request %d; want the fetch reply to request %d", seq, m.Kind, m.Seq, seq)
			}
			m.ReleaseFrame()
		}
	}
}

// queued reads how many requests wait in s.
func queued(s *serveStripe) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// TestServeStripeFloodStopsAtLimit: a peer that floods one stripe while
// its worker is held fills the queue to serveQueueLimit and no further;
// the dispatcher then waits for room. Once the worker is released every
// request is served, in arrival order; and Close returns while the
// dispatcher waits and the worker is held.
func TestServeStripeFloodStopsAtLimit(t *testing.T) {
	const n = 1 + serveQueueLimit + 4 // one held, a full queue, and more behind
	for _, closeHeld := range []bool{false, true} {
		net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		peer := rawAttach(t, net, 1)
		origin := newRuntimeOnNet(t, net, 2)
		origin.serveMu.Lock() // holds the worker serving peer's first FETCH
		held := true
		release := func() {
			if held {
				held = false
				origin.serveMu.Unlock()
			}
		}
		t.Cleanup(release)
		empty := wire.FetchPayload{}
		for seq := uint64(1); seq <= n; seq++ {
			if err := peer.Send(sealed(wire.Message{Kind: wire.KindFetch, Seq: seq, To: 2, Payload: empty.Encode()})); err != nil {
				t.Fatal(err)
			}
		}
		stripe := &origin.serve[1%serveWorkers]
		waitFor(t, "the stripe to fill", func() bool { return queued(stripe) == serveQueueLimit })
		time.Sleep(20 * time.Millisecond)
		if got := queued(stripe); got != serveQueueLimit {
			t.Fatalf("a flooded stripe holds %d requests; want the limit, %d", got, serveQueueLimit)
		}
		if len(stripe.ring) != serveQueueLimit {
			t.Fatalf("a flooded stripe's ring has %d slots; want %d", len(stripe.ring), serveQueueLimit)
		}

		if closeHeld {
			closed := make(chan error, 1)
			go func() { closed <- origin.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return while the dispatcher waited on a full stripe")
			}
			continue
		}

		release()
		for seq := uint64(1); seq <= n; seq++ {
			m, err := peer.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind != wire.KindFetchReply || m.Seq != seq {
				t.Fatalf("reply %d is a %v for request %d; want the fetch reply to request %d", seq, m.Kind, m.Seq, seq)
			}
			m.ReleaseFrame()
		}
	}
}

// TestServeStripeIsFIFO: random puts and takes on one stripe, growth
// across the ring's wrap point included, come out in the order they went
// in.
func TestServeStripeIsFIFO(t *testing.T) {
	s := newServeStripe()
	stop := make(chan struct{})
	rng := rand.New(rand.NewPCG(1, 2))
	var want []uint64
	next := uint64(1)
	for range 20000 {
		if len(want) < serveQueueLimit && rng.IntN(100) < 55 {
			s.put(wire.Message{Seq: next}, stop)
			want = append(want, next)
			next++
			continue
		}
		m, ok := s.take()
		if ok != (len(want) > 0) {
			t.Fatalf("take reported %v with %d requests queued", ok, len(want))
		}
		if ok {
			if m.Seq != want[0] {
				t.Fatalf("took request %d; want %d", m.Seq, want[0])
			}
			want = want[1:]
		}
		if s.n != len(want) {
			t.Fatalf("stripe counts %d requests; want %d", s.n, len(want))
		}
	}
}
