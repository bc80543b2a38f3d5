package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// --- positive checks: the invariants hold through real sessions ---

func TestInvariantsHoldThroughSession(t *testing.T) {
	for _, pol := range []Policy{PolicySmart, PolicyEager, PolicyLazy} {
		t.Run(pol.String(), func(t *testing.T) {
			caller, callee := pair(t, func(id uint32, o *Options) {
				o.Policy = pol
				o.CheckInvariants = true
			})
			registerSumProc(t, callee)
			root := buildTree(t, caller, 5)
			res := sessionCall(t, caller, 2, "sumTree", root)
			if got := res[0].Int64(); got != wantSum(5) {
				t.Errorf("sum = %d, want %d", got, wantSum(5))
			}
			// Quiescent, no session: every space must satisfy the full
			// network-level check with no thread of control anywhere.
			if err := CheckNetworkInvariants(nil, []*Runtime{caller, callee}); err != nil {
				t.Errorf("network invariants after clean session: %v", err)
			}
			for _, rt := range []*Runtime{caller, callee} {
				if err := rt.CheckIdleInvariants(); err != nil {
					t.Errorf("idle invariants space %d: %v", rt.ID(), err)
				}
			}
		})
	}
}

func TestInvariantsHoldMidSessionWithMutation(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.CheckInvariants = true })
	err := callee.Register("incAll", func(ctx *Ctx, args []Value) ([]Value, error) {
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
			n, err := ref.Int("data", 0)
			if err != nil {
				return err
			}
			if err := ref.SetInt("data", 0, n+1); err != nil {
				return err
			}
			for _, f := range []string{"left", "right"} {
				c, err := ref.Ptr(f, 0)
				if err != nil {
					return err
				}
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		return nil, walk(args[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 4)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "incAll", []Value{root}); err != nil {
		t.Fatal(err)
	}
	// Mid-session quiescent point: thread of control is back on the
	// caller, so only the caller may hold dirty pages.
	if err := CheckNetworkInvariants(caller, []*Runtime{caller, callee}); err != nil {
		t.Errorf("network invariants mid-session: %v", err)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	got, err := sumTree(caller, root)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantSum(4) + (1<<4 - 1); got != want {
		t.Errorf("sum after remote increment = %d, want %d", got, want)
	}
}

// --- mutation tests: each deliberately broken invariant is caught ---

func TestInvariantCatchesForeignModifiedEntry(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.CheckLocalInvariants(); err != nil {
		t.Fatalf("clean runtime fails local check: %v", err)
	}
	caller.modMu.Lock()
	caller.sessionModified[1] = []wire.LongPtr{{Space: 99, Addr: 0x1_0000, Type: nodeType}}
	caller.modMu.Unlock()
	err := caller.CheckLocalInvariants()
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("foreign modified entry not caught, err = %v", err)
	}
	if !strings.Contains(err.Error(), "foreign") {
		t.Errorf("error %q does not name the violation", err)
	}
}

func TestInvariantCatchesDanglingPointer(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	errCh := make(chan error, 1)
	err := callee.Register("corrupt", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		// Walk the tree first so cached rows become resident.
		if _, err := sumTree(rt, args[0]); err != nil {
			return nil, err
		}
		if err := rt.CheckLocalInvariants(); err != nil {
			errCh <- err
			return nil, nil
		}
		// Smash a pointer word of a resident cached node with an address
		// that is neither heap nor a table row.
		for _, e := range rt.Table().Entries() {
			if !e.Resident {
				continue
			}
			if err := rt.Space().WritePtrRaw(e.Addr, vmem.VAddr(0x4242)); err != nil {
				errCh <- err
				return nil, nil
			}
			break
		}
		errCh <- rt.CheckLocalInvariants()
		// Put nulls back so end-of-session teardown stays sane.
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 3)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "corrupt", []Value{root}); err != nil {
		t.Fatal(err)
	}
	caller.AbortSession()
	callee.AbortSession()
	got := <-errCh
	if !errors.Is(got, ErrInvariant) {
		t.Fatalf("dangling pointer not caught, err = %v", got)
	}
	if !strings.Contains(got.Error(), "dangling") {
		t.Errorf("error %q does not name the violation", got)
	}
}

func TestInvariantCatchesVersionSplit(t *testing.T) {
	caller, callee := pair(t, nil)
	// A mutating call ships the modified set back on return, which is
	// what records delta-shipping views on both ends of the edge (the
	// read-only fetch path deliberately bypasses them).
	err := callee.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		n, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return nil, ref.SetInt("data", 0, n+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 3)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "bump", []Value{root}); err != nil {
		t.Fatal(err)
	}
	if err := CheckCohLockstep(caller, callee); err != nil {
		t.Fatalf("lockstep broken after clean call: %v", err)
	}
	// Advance one datum's crossing version on the caller side only —
	// exactly what a dropped or duplicated items frame would cause.
	caller.coh.mu.Lock()
	edge := caller.coh.peers[callee.ID()]
	if edge == nil || len(edge.index) == 0 {
		// CheckCohLockstep above folded the edge's tail into its index.
		caller.coh.mu.Unlock()
		t.Fatal("no delta-shipping views recorded on the edge")
	}
	for lp, v := range edge.index {
		v.ver++
		edge.index[lp] = v
		break
	}
	caller.coh.mu.Unlock()
	err = CheckCohLockstep(caller, callee)
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("version split not caught, err = %v", err)
	}
	if !strings.Contains(err.Error(), "version split") {
		t.Errorf("error %q does not name the violation", err)
	}
	caller.AbortSession()
	callee.AbortSession()
}

func TestIdleInvariantsCatchLeftoverState(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "sumTree", []Value{root}); err != nil {
		t.Fatal(err)
	}
	// Mid-session the callee holds cached rows; it must NOT pass the
	// idle check — this is what a lost end-of-session invalidation
	// leaves behind.
	if err := callee.CheckIdleInvariants(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("leftover cache rows not caught, err = %v", err)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	if err := callee.CheckIdleInvariants(); err != nil {
		t.Fatalf("callee not idle after clean end: %v", err)
	}
}

// --- AbortSession recovery ---

func TestAbortSessionRecoversBothSides(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.CheckInvariants = true })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "sumTree", []Value{root}); err != nil {
		t.Fatal(err)
	}
	// Abandon the session without the invalidation handshake, as a
	// harness would after a fault wedged it.
	caller.AbortSession()
	callee.AbortSession()
	for _, rt := range []*Runtime{caller, callee} {
		if err := rt.CheckIdleInvariants(); err != nil {
			t.Fatalf("space %d not idle after abort: %v", rt.ID(), err)
		}
	}
	// A fresh session works end to end.
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(4) {
		t.Errorf("sum after abort+restart = %d, want %d", got, wantSum(4))
	}
}

// --- call deadline ---

func TestCallTimeoutReturnsTypedError(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Options{
		ID: 1, Node: node, Registry: newTestRegistry(t),
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	// Space 7 is attached but never serves anything — a silent partition.
	_ = rawAttach(t, net, 7)
	if err := rt.BeginSession(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rt.Call(7, "anything", nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("call to silent peer: err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v, want ~50ms", elapsed)
	}
	rt.AbortSession()
	if err := rt.CheckIdleInvariants(); err != nil {
		t.Errorf("caller not clean after deadline+abort: %v", err)
	}
}

func TestNoTimeoutByDefault(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	res := sessionCall(t, caller, 2, "sumTree", root)
	if got := res[0].Int64(); got != wantSum(3) {
		t.Errorf("sum = %d, want %d", got, wantSum(3))
	}
}

// --- duplicate request suppression ---

// TestDuplicateRequestExecutesOnce: for every request kind, a frame the
// transport delivers twice back to back runs once and is answered once,
// and a second, distinct request is answered too.
func TestDuplicateRequestExecutesOnce(t *testing.T) {
	const sess = 0x700000001
	for _, c := range []struct {
		kind    wire.Kind
		payload func(rt *Runtime) []byte
	}{
		{wire.KindCall, func(*Runtime) []byte { return (&wire.CallPayload{}).Encode() }},
		{wire.KindFetch, func(rt *Runtime) []byte {
			root := buildTree(t, rt, 1)
			return (&wire.FetchPayload{Wants: []wire.LongPtr{root.LP}, Budget: 1 << 10}).Encode()
		}},
		{wire.KindWriteBack, func(*Runtime) []byte { return (&wire.ItemsPayload{}).Encode() }},
		{wire.KindAllocBatch, func(*Runtime) []byte {
			return (&wire.AllocBatchPayload{Allocs: []wire.AllocReq{{Token: 1, Type: nodeType}}}).Encode()
		}},
		{wire.KindInvalidate, func(*Runtime) []byte { return []byte{} }},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = net.Close() })
			rt := newRuntimeOnNet(t, net, 2)
			// The two distinct requests may be served concurrently.
			var calls atomic.Int64
			err = rt.Register("count", func(*Ctx, []Value) ([]Value, error) {
				calls.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			raw := rawAttach(t, net, 7)
			msg := wire.Message{Kind: c.kind, Session: sess, Seq: 5, From: 7, To: 2, Proc: "count", Payload: c.payload(rt)}
			msg2 := msg
			msg2.Seq = 6
			// Original plus a duplicated frame, then a distinct second request.
			for _, m := range []wire.Message{msg, msg, msg2} {
				if err := raw.Send(sealed(m)); err != nil {
					t.Fatal(err)
				}
			}
			// Exactly two replies arrive: one per distinct request; none for
			// the duplicate.
			for i := 0; i < 2; i++ {
				reply := recvWithin(t, raw)
				if reply.Kind != c.kind.ReplyKind() || reply.Err != "" {
					t.Fatalf("reply %d = %+v", i, reply)
				}
			}
			if n := calls.Load(); c.kind == wire.KindCall && n != 2 {
				t.Errorf("handler ran %d times, want 2 (duplicate must be suppressed)", n)
			}
			if n := rt.Stats().FetchesServed; c.kind == wire.KindFetch && n != 2 {
				t.Errorf("served %d fetches, want 2 (duplicate must be suppressed)", n)
			}
			noMoreReplies(t, raw)
		})
	}
}

// TestInvalidateAfterRetirement: the INVALIDATE's serve retires its
// session, possibly before the dispatcher reads the next frame. A
// duplicate of it read afterwards is dropped, not acknowledged twice; a
// retry — the ground lost the ack — is acknowledged, once; a later
// request of the retired session is a new exchange and is answered.
func TestInvalidateAfterRetirement(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	inv := wire.Message{Kind: wire.KindInvalidate, Session: 0x700000001, Seq: wire.SeqWithAttempt(5, 0), From: 7, To: 2, Payload: []byte{}}
	retry := inv
	retry.Seq = wire.SeqWithAttempt(5, 1)
	late := wire.Message{Kind: wire.KindWriteBack, Session: inv.Session, Seq: 6, From: 7, To: 2, Payload: (&wire.ItemsPayload{}).Encode()}
	for _, step := range []struct {
		m        wire.Message
		answered bool
	}{{inv, true}, {inv, false}, {retry, true}, {retry, false}, {late, true}} {
		if err := raw.Send(sealed(step.m)); err != nil {
			t.Fatal(err)
		}
		if !step.answered {
			continue
		}
		// The reply comes after the serve retired the session.
		if reply := recvWithin(t, raw); reply.Kind != step.m.Kind.ReplyKind() || reply.Seq != step.m.Seq || reply.Err != "" {
			t.Fatalf("reply = %+v; want a %v to seq %#x", reply, step.m.Kind.ReplyKind(), step.m.Seq)
		}
	}
	noMoreReplies(t, raw)
}

// TestDuplicateOfReplayedRetryDropped: a retry of a completed CALL is
// answered from the retained reply once; the retry's own duplicate frame
// is dropped, not replayed a second time.
func TestDuplicateOfReplayedRetryDropped(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	rt := newRuntimeOnNet(t, net, 2)
	var calls atomic.Int64
	err = rt.Register("count", func(*Ctx, []Value) ([]Value, error) {
		calls.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := rawAttach(t, net, 7)
	call := wire.Message{Kind: wire.KindCall, Session: 0x700000001, Seq: wire.SeqWithAttempt(5, 0), From: 7, To: 2, Proc: "count", Payload: (&wire.CallPayload{}).Encode()}
	retry := call
	retry.Seq = wire.SeqWithAttempt(5, 1)
	for i, m := range []wire.Message{call, retry, retry} {
		if err := raw.Send(sealed(m)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			break
		}
		// The first attempt completes before its retry arrives.
		if reply := recvWithin(t, raw); reply.Kind != wire.KindReturn || reply.Seq != m.Seq {
			t.Fatalf("reply %d = %+v; want a RETURN to seq %#x", i, reply, m.Seq)
		}
	}
	noMoreReplies(t, raw)
	if n := calls.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1", n)
	}
	if st := rt.Stats(); st.DedupReplays != 1 {
		t.Errorf("DedupReplays = %d, want 1", st.DedupReplays)
	}
	rt.AbortSession()
}

// recvWithin returns the next frame n receives, failing the test after
// five seconds without one.
func recvWithin(t *testing.T, n transport.Node) wire.Message {
	t.Helper()
	select {
	case m := <-recvChan(n):
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no reply within 5s")
		return wire.Message{}
	}
}

// noMoreReplies fails the test if n receives anything within 50 ms.
func noMoreReplies(t *testing.T, n transport.Node) {
	t.Helper()
	select {
	case m := <-recvChan(n):
		t.Fatalf("unexpected extra reply %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func recvChan(n transport.Node) <-chan wire.Message {
	ch := make(chan wire.Message, 1)
	go func() {
		if m, err := n.Recv(); err == nil {
			ch <- m
		}
	}()
	return ch
}
