package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// --- transport and peer failures ---

func TestCallToDetachedSpaceFails(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	defer caller.EndSession()
	if _, err := caller.Call(99, "x", nil); err == nil {
		t.Error("call to unattached space succeeded")
	}
}

func TestCalleeClosedMidSessionUnblocksCaller(t *testing.T) {
	caller, callee := pair(t, nil)
	started := make(chan struct{})
	err := callee.Register("hang", func(*Ctx, []Value) ([]Value, error) {
		close(started)
		select {} // never returns
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := caller.Call(2, "hang", nil)
		errCh <- err
	}()
	<-started
	// Closing the caller's runtime unblocks the pending call.
	_ = caller.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("call returned nil after runtime close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not unblock on close")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.Close(); err != nil {
		t.Fatal(err)
	}
	if err := caller.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	_ = caller.Close()
	if _, err := caller.Call(2, "x", nil); err == nil {
		t.Error("call after close succeeded")
	}
}

// sealed stamps a hand-built frame's integrity checksum, as every
// well-formed sender must.
func sealed(m wire.Message) wire.Message {
	m.Seal()
	return m
}

// rawAttach attaches a bare transport node so tests can inject malformed
// protocol messages at a runtime.
func rawAttach(t *testing.T, rtNet *transport.Network, id uint32) transport.Node {
	t.Helper()
	n, err := rtNet.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newRuntimeOnNet(t *testing.T, rtNet *transport.Network, id uint32) *Runtime {
	t.Helper()
	node := rawAttach(t, rtNet, id)
	rt, err := New(Options{ID: id, Node: node, Registry: newTestRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

func TestMalformedCallPayloadRejected(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	rt := newRuntimeOnNet(t, net, 2)
	_ = rt
	raw := rawAttach(t, net, 7)
	err = raw.Send(sealed(wire.Message{
		Kind:    wire.KindCall,
		Session: 0x700000001,
		Seq:     1,
		To:      2,
		Proc:    "anything",
		Payload: []byte{0xde, 0xad}, // truncated garbage
	}))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KindReturn || reply.Err == "" {
		t.Errorf("malformed call reply = %+v", reply)
	}
	if !strings.Contains(reply.Err, "decode") {
		t.Errorf("error %q does not mention decode", reply.Err)
	}
}

func TestFetchForForeignDataRejected(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	_ = newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	p := wire.FetchPayload{
		Wants:  []wire.LongPtr{{Space: 3, Addr: 0x1000, Type: 1}}, // not owned by 2
		Budget: 0,
	}
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindFetch, Seq: 9, To: 2, Payload: p.Encode()})); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Error("fetch for foreign data accepted")
	}
}

func TestFetchForBogusAddressRejected(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	_ = newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	p := wire.FetchPayload{
		Wants: []wire.LongPtr{{Space: 2, Addr: 0x3333_0000, Type: 1}}, // unmapped
	}
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindFetch, Seq: 9, To: 2, Payload: p.Encode()})); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Error("fetch for unmapped address accepted")
	}
}

func TestWriteBackForForeignDataRejected(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	_ = newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	p := wire.ItemsPayload{Items: []wire.DataItem{
		{LP: wire.LongPtr{Space: 5, Addr: 0x100, Type: 1}, Bytes: make([]byte, 32)},
	}}
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindWriteBack, Seq: 3, To: 2, Payload: p.Encode()})); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KindWriteBackAck || reply.Err == "" {
		t.Errorf("foreign write-back reply = %+v", reply)
	}
}

func TestAllocBatchFreeingForeignDataRejected(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	_ = newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	p := wire.AllocBatchPayload{Frees: []wire.LongPtr{{Space: 9, Addr: 0x100, Type: 1}}}
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindAllocBatch, Seq: 4, To: 2, Payload: p.Encode()})); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Error("foreign free accepted")
	}
}

func TestAllocBatchUnknownTypeRejected(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	_ = newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	p := wire.AllocBatchPayload{Allocs: []wire.AllocReq{{Token: 1, Type: 77}}}
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindAllocBatch, Seq: 5, To: 2, Payload: p.Encode()})); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Error("allocation of unknown type accepted")
	}
}

func TestInvalidateFromStrangerIsSafe(t *testing.T) {
	// An invalidate for a session a runtime never joined must not
	// disturb local heap data (only cache state, which is empty).
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	rt := newRuntimeOnNet(t, net, 2)
	v, err := rt.NewObject(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rt.Deref(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 77); err != nil {
		t.Fatal(err)
	}
	raw := rawAttach(t, net, 7)
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindInvalidate, Seq: 8, To: 2, Payload: []byte{}})); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KindInvalidateAck || reply.Err != "" {
		t.Errorf("invalidate reply = %+v", reply)
	}
	d, err := ref.Int("data", 0)
	if err != nil || d != 77 {
		t.Errorf("heap data after stranger invalidate = %d, %v", d, err)
	}
}

func TestCorruptedFrameRejectedByChecksum(t *testing.T) {
	// A frame whose payload was corrupted in flight fails checksum
	// verification and is answered with a typed error — the receiver
	// must never install bytes from it. The 500-seed chaos soak found
	// the original hole: a single flipped bit in a call frame's shipped
	// data installed cleanly and produced a silently wrong sum.
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	_ = newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	p := wire.CallPayload{}
	m := sealed(wire.Message{
		Kind: wire.KindCall, Session: 0x700000001, Seq: 1,
		To: 2, Proc: "anything", Payload: p.Encode(),
	})
	m.Payload[0] ^= 0x04 // in-flight bit flip, after sealing
	if err := raw.Send(m); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KindReturn || !strings.Contains(reply.Err, "checksum") {
		t.Errorf("corrupted frame reply = %+v, want checksum error", reply)
	}
	// The reply itself carries a valid checksum.
	if !reply.SumOK() {
		t.Error("error reply is not sealed")
	}
}

func TestUnsolicitedReplyIgnored(t *testing.T) {
	// Replies with no matching pending request are dropped, not crashed on.
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	rt := newRuntimeOnNet(t, net, 2)
	raw := rawAttach(t, net, 7)
	if err := raw.Send(sealed(wire.Message{Kind: wire.KindReturn, Seq: 4242, To: 2, Payload: []byte{}})); err != nil {
		t.Fatal(err)
	}
	// The runtime still works afterwards.
	v, err := rt.NewObject(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rt.Deref(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 1); err != nil {
		t.Fatal(err)
	}
}

// --- session edge cases ---

func TestHandlerErrorStillSendsCoherentReply(t *testing.T) {
	// Even when the handler fails, the caller gets a Return and the
	// session stays usable for further calls.
	caller, callee := pair(t, nil)
	boom := errors.New("no")
	err := callee.Register("fail", func(*Ctx, []Value) ([]Value, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "fail", nil); err == nil {
		t.Error("failed handler returned success")
	}
	res, err := caller.Call(2, "sumTree", []Value{root})
	if err != nil {
		t.Fatalf("session unusable after handler error: %v", err)
	}
	if res[0].Int64() != wantSum(3) {
		t.Errorf("sum after failure = %d", res[0].Int64())
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyDataSurvivesHandlerError(t *testing.T) {
	// A handler that modifies cached data and THEN fails: the paper's
	// protocol has no transactions — the modification still propagates
	// (documented semantics, matching C behavior where the write already
	// happened).
	caller, callee := pair(t, nil)
	boom := errors.New("late failure")
	err := callee.Register("writeThenFail", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 555); err != nil {
			return nil, err
		}
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	registerSumProc(t, callee)
	root := buildTree(t, caller, 1)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "writeThenFail", []Value{root}); err == nil {
		t.Error("handler error lost")
	}
	// A follow-up call observes the modification (dirty set traveled on
	// the NEXT control transfer; error returns carry no payload).
	res, err := caller.Call(2, "sumTree", []Value{root})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int64() != 555 {
		t.Errorf("sum after failed-but-written handler = %d, want 555", res[0].Int64())
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ref.Int("data", 0)
	if err != nil || d != 555 {
		t.Errorf("origin after session = %d, %v; want 555", d, err)
	}
}

func TestEndSessionOnNonGroundFails(t *testing.T) {
	caller, callee := pair(t, nil)
	done := make(chan error, 1)
	err := callee.Register("tryEnd", func(ctx *Ctx, args []Value) ([]Value, error) {
		done <- ctx.Runtime().EndSession()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sessionCall(t, caller, 2, "tryEnd")
	if err := <-done; err == nil {
		t.Error("EndSession on non-ground runtime succeeded")
	}
}

func TestSessionReusableAfterEnd(t *testing.T) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	for i := 0; i < 5; i++ {
		res := sessionCall(t, caller, 2, "sumTree", root)
		if res[0].Int64() != wantSum(4) {
			t.Fatalf("iteration %d sum = %d", i, res[0].Int64())
		}
	}
}

func TestExtendedMallocOutsideSessionFails(t *testing.T) {
	caller, _ := pair(t, nil)
	if _, err := caller.ExtendedMalloc(2, nodeType); !errors.Is(err, ErrNoSession) {
		t.Errorf("ExtendedMalloc outside session: %v", err)
	}
}

func TestExtendedMallocUnknownType(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	defer caller.EndSession()
	if _, err := caller.ExtendedMalloc(2, 99); err == nil {
		t.Error("ExtendedMalloc of unknown type succeeded")
	}
}

func TestExtendedFreeInvalidValues(t *testing.T) {
	caller, _ := pair(t, nil)
	if err := caller.ExtendedFree(Int64Value(1)); err == nil {
		t.Error("ExtendedFree of scalar succeeded")
	}
	if err := caller.ExtendedFree(NullPtr(nodeType)); err == nil {
		t.Error("ExtendedFree of null succeeded")
	}
}

func TestDirtyDataSurvivesHandlerErrorThenSessionEnd(t *testing.T) {
	// Stronger variant: the session ends immediately after the failing
	// call; the error return itself must carry the modified data home.
	caller, callee := pair(t, nil)
	err := callee.Register("writeThenFail", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 666); err != nil {
			return nil, err
		}
		return nil, errors.New("late failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "writeThenFail", []Value{root}); err == nil {
		t.Error("handler error lost")
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ref.Int("data", 0)
	if err != nil || d != 666 {
		t.Errorf("origin after error+end = %d, %v; want 666", d, err)
	}
}

// --- exchange lifecycle ---

// chunkFrame builds one sealed chunk of a streamed FETCH reply to req, in
// a pooled frame buffer as an origin's emitter would.
func chunkFrame(req wire.Message, ord uint32, final bool, items []wire.DataItem) wire.Message {
	p := wire.FetchChunkPayload{XID: req.Seq, Chunk: ord, Final: final, Items: items}
	fb := wire.NewChunkBuf()
	p.EncodeTo(fb.Enc())
	return sealed(wire.Message{
		Kind: wire.KindFetchChunk, Session: req.Session, Seq: req.Seq, To: req.From,
		Payload: fb.Enc().Bytes(), Frame: fb,
	})
}

// monolithicFrame builds a sealed one-frame reply of the given kind to
// req, its payload the encoded items in a pooled frame buffer, as an
// origin's emitter sends a closure that never reached the chunk limit.
func monolithicFrame(req wire.Message, kind wire.Kind, items []wire.DataItem) wire.Message {
	fb := wire.NewChunkBuf()
	(&wire.ItemsPayload{Items: items}).EncodeTo(fb.Enc())
	return sealed(wire.Message{
		Kind: kind, Session: req.Session, Seq: req.Seq, To: req.From,
		Payload: fb.Enc().Bytes(), Frame: fb,
	})
}

// TestMonolithicReplyFrameReleased: a monolithic FETCH reply rides a
// pooled frame buffer as a chunk does, and whatever becomes of it, the
// buffer's last reference is released exactly once: Refs reaches 0, where
// a leak would leave 1 and a double release -1. The reply is installed;
// or it arrives after its exchange timed out and finds no waiter; or
// classify rejects it, as the wrong kind or as corrupted in flight; or its
// items fail to decode.
func TestMonolithicReplyFrameReleased(t *testing.T) {
	lp := wire.LongPtr{Space: 1, Addr: 0x1000, Type: nodeType}
	node := []wire.DataItem{{LP: lp, Bytes: make([]byte, 2*wire.EncodedLongPtrSize+8)}}
	reply := func(req wire.Message) wire.Message { return monolithicFrame(req, wire.KindFetchReply, node) }
	for _, tc := range []struct {
		name    string
		reply   func(req wire.Message) wire.Message
		late    bool // answer only after the exchange has timed out
		wantErr bool
	}{
		{name: "installed", reply: reply},
		{name: "stale", reply: reply, late: true, wantErr: true},
		{name: "classify/wrong-kind", wantErr: true, reply: func(req wire.Message) wire.Message {
			return monolithicFrame(req, wire.KindInvalidateAck, node)
		}},
		{name: "classify/corrupted", wantErr: true, reply: func(req wire.Message) wire.Message {
			m := reply(req)
			m.Payload[len(m.Payload)-1] ^= 1 // after sealing: the checksum no longer matches
			return m
		}},
		{name: "decode", wantErr: true, reply: func(req wire.Message) wire.Message {
			fb := wire.NewChunkBuf()
			fb.Enc().PutUint32(1) // one item, and no bytes for it
			return sealed(wire.Message{
				Kind: wire.KindFetchReply, Session: req.Session, Seq: req.Seq, To: req.From,
				Payload: fb.Enc().Bytes(), Frame: fb,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = net.Close() })
			origin := rawAttach(t, net, 1)
			o := Options{ID: 2, Node: rawAttach(t, net, 2), Registry: newTestRegistry(t)}
			if tc.late {
				o.CallTimeout = 20 * time.Millisecond
			}
			cl, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cl.Close() })
			if err := cl.BeginSession(); err != nil {
				t.Fatal(err)
			}
			v, err := cl.ImportPtr(lp)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				key := fetchKey{pn: cl.space.PageOf(v.Addr), origin: 1}
				_, _, err := cl.fetchFrom(&inflightFetch{fetchKey: key, sess: cl.Session()}, false)
				done <- err
			}()
			req, err := origin.Recv()
			if err != nil || req.Kind != wire.KindFetch {
				t.Fatalf("origin received %v, %v; want a FETCH", req.Kind, err)
			}
			m := tc.reply(req)
			fb := m.Frame
			if tc.late {
				if err := <-done; !errors.Is(err, ErrDeadline) {
					t.Fatalf("the unanswered FETCH returned %v, want ErrDeadline", err)
				}
			}
			if err := origin.Send(m); err != nil {
				t.Fatal(err)
			}
			if tc.late {
				waitFor(t, "the late reply to be dropped", func() bool { return cl.Stats().StaleReplyDrops == 1 })
			} else if err := <-done; (err != nil) != tc.wantErr {
				t.Fatalf("fetch returned %v, want an error: %v", err, tc.wantErr)
			}
			if n := fb.Refs(); n != 0 {
				t.Errorf("the reply's pooled buffer holds %d references, want 0", n)
			}
			if e, ok := cl.table.LookupAddr(v.Addr); !ok || e.Resident != !tc.wantErr {
				t.Errorf("row resident = %v, want %v", e.Resident, !tc.wantErr)
			}
		})
	}
}

// heldFrames decorates a transport.Node: every pooled frame it delivers
// keeps one more reference, so a test can tell afterwards whether the
// consumer released its own.
type heldFrames struct {
	transport.Node
	mu     sync.Mutex
	frames []*wire.FrameBuf
	kinds  map[wire.Kind]int // pooled frames delivered, by kind
}

func (h *heldFrames) Recv() (wire.Message, error) {
	m, err := h.Node.Recv()
	if err == nil && m.Frame != nil {
		m.Frame.Retain()
		h.mu.Lock()
		h.frames = append(h.frames, m.Frame)
		h.kinds[m.Kind]++
		h.mu.Unlock()
	}
	return m, err
}

// TestTCPReplyFramesReleased runs a cold session over loopback TCP: the
// FETCH replies arrive zero-copy, their payload aliasing the pooled read
// buffer as a reply sent in process does, and the client releases every
// one of them once installed. The walk must see the origin's values.
func TestTCPReplyFramesReleased(t *testing.T) {
	reg := newTestRegistry(t)
	// The origin listens on a port of its own choosing and learns the
	// client's address from the client's first frame. A stalled exchange
	// fails with ErrDeadline instead of hanging the package.
	mk := func(id uint32, book map[uint32]string, wrap func(transport.Node) transport.Node) (*Runtime, string) {
		node, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: id, Node: wrap(node), Registry: reg, CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt, node.Addr()
	}
	held := &heldFrames{kinds: make(map[wire.Kind]int)}
	origin, addr := mk(1, nil, func(n transport.Node) transport.Node { return n })
	cl, _ := mk(2, map[uint32]string{1: addr}, func(n transport.Node) transport.Node { held.Node = n; return held })

	const levels = 10 // 1 023 nodes: several faults, each a monolithic reply
	root := buildTree(t, origin, levels)
	if err := cl.BeginSession(); err != nil {
		t.Fatal(err)
	}
	v, err := cl.ImportPtr(root.LP)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sumTree(cl, v)
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(1)<<levels - 1; sum != n*(n+1)/2 {
		t.Errorf("sum over TCP = %d, want %d", sum, n*(n+1)/2)
	}
	if err := cl.EndSession(); err != nil {
		t.Fatal(err)
	}
	held.mu.Lock()
	defer held.mu.Unlock()
	if held.kinds[wire.KindFetchReply] == 0 {
		t.Fatalf("no FETCH reply arrived in a pooled frame (pooled frames by kind: %v)", held.kinds)
	}
	for i, fb := range held.frames {
		if n := fb.Refs(); n != 1 {
			t.Errorf("frame %d holds %d references besides the test's, want 0", i, n-1)
		}
		fb.Release()
	}
}

// TestCloseWithExchangesInFlight is the lifecycle oracle of the one
// teardown path. Close finds every kind of waiter the engine has: a
// waiting one-frame round trip, a chunk stream consumed as far as its
// first chunk with two more queued, and a background drain whose faulting
// access was long since unblocked, with a chunk parked that no thread of
// control installed. All of them return ErrClosed, the queued and parked
// chunks' pooled buffers are released, and no goroutine the runtime
// started outlives it.
func TestCloseWithExchangesInFlight(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	origin := rawAttach(t, net, 1)
	node := rawAttach(t, net, 2)
	reg := newTestRegistry(t)
	before := runtime.NumGoroutine()
	cl, err := New(Options{ID: 2, Node: node, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	if err := cl.BeginSession(); err != nil {
		t.Fatal(err)
	}
	sess := cl.Session()
	recv := func(kind wire.Kind) wire.Message {
		t.Helper()
		m, err := origin.Recv()
		if err != nil || m.Kind != kind {
			t.Fatalf("origin received %v, %v; want a %v", m.Kind, err, kind)
		}
		return m
	}
	send := func(m wire.Message) {
		t.Helper()
		if err := origin.Send(m); err != nil {
			t.Fatal(err)
		}
	}

	// The background drain: a fault whose reply's first chunk makes the
	// page resident and whose stream never ends.
	lp := wire.LongPtr{Space: 1, Addr: 0x1000, Type: nodeType}
	v, err := cl.ImportPtr(lp)
	if err != nil {
		t.Fatal(err)
	}
	faulted := make(chan error, 1)
	go func() {
		_, err := sumTree(cl, v)
		faulted <- err
	}()
	node1 := []wire.DataItem{{LP: lp, Bytes: make([]byte, 2*wire.EncodedLongPtrSize+8)}}
	fetch := recv(wire.KindFetch)
	send(chunkFrame(fetch, 0, false, node1))
	if err := <-faulted; err != nil {
		t.Fatalf("fault over a streamed reply: %v", err)
	}
	if n := cl.InflightFetches(); n != 1 {
		t.Fatalf("%d in-flight registry entries with the drain running, want 1", n)
	}
	// The drain parks the stream's next chunk for the thread of control,
	// which never comes back to install it.
	tail := chunkFrame(fetch, 1, false, nil)
	send(tail)
	waitFor(t, "the drain to park chunk 1", func() bool { return cl.ParkedFrames() == 1 })

	// The waiting round trip: a request nobody answers.
	waiting := make(chan error, 1)
	go func() {
		_, err := cl.roundTrip(wire.Message{Kind: wire.KindInvalidate, Session: sess, To: 1, Payload: []byte{}})
		waiting <- err
	}()
	recv(wire.KindInvalidate)

	// The half-consumed stream: its consumer is still busy with chunk 0
	// when chunks 1 and 2 arrive.
	busy, resume := make(chan struct{}), make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		p := wire.FetchPayload{Wants: []wire.LongPtr{lp}}
		_, err := cl.exchange(wire.Message{Kind: wire.KindFetch, Session: sess, To: 1, Payload: p.Encode()},
			nil, func(m wire.Message) (bool, error) {
				m.ReleaseFrame()
				close(busy)
				<-resume
				return false, nil
			})
		streamed <- err
	}()
	req := recv(wire.KindFetch)
	send(chunkFrame(req, 0, false, nil))
	<-busy
	queued := []wire.Message{chunkFrame(req, 1, false, nil), chunkFrame(req, 2, false, nil)}
	for _, m := range queued {
		send(m)
	}
	waitFor(t, "two chunks queued behind the busy consumer", func() bool {
		cl.pending.mu.Lock()
		defer cl.pending.mu.Unlock()
		x := cl.pending.m[req.Seq]
		return x != nil && len(x.q)-x.head == 2
	})

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	close(resume)
	for name, ch := range map[string]chan error{"waiting round trip": waiting, "half-consumed stream": streamed} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s returned %v, want ErrClosed", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return after Close", name)
		}
	}
	for i, m := range queued {
		if n := m.Frame.Refs(); n != 0 {
			t.Errorf("queued chunk %d still holds %d references to its pooled buffer", i+1, n)
		}
	}
	if n := tail.Frame.Refs(); n != 0 {
		t.Errorf("the parked chunk still holds %d references to its pooled buffer", n)
	}
	if n := cl.ParkedFrames(); n != 0 {
		t.Errorf("%d frames still parked after Close", n)
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries after Close: the background drain did not end", n)
	}
	cl.pending.mu.Lock()
	left := len(cl.pending.m)
	cl.pending.mu.Unlock()
	if left != 0 {
		t.Errorf("%d exchanges still registered after Close", left)
	}
	waitFor(t, "the runtime's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLateReplyNeverReachesLaterAttempt: attempt 0 of a round trip times
// out; its reply arrives while attempt 1 — the same exchange, registered
// under the next attempt's sequence number — is waiting. The late frame
// must find no waiter (StaleReplyDrops), the exchange must return attempt
// 1's reply, and the exchange the pool hands the next round trip must not
// see it either.
func TestLateReplyNeverReachesLaterAttempt(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	origin := rawAttach(t, net, 1)
	cl, err := New(Options{
		ID: 2, Node: rawAttach(t, net, 2), Registry: newTestRegistry(t),
		CallTimeout: 50 * time.Millisecond, RetryBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ack := func(req wire.Message, payload string) wire.Message {
		return sealed(wire.Message{
			Kind: wire.KindInvalidateAck, Session: req.Session, Seq: req.Seq, To: req.From, Payload: []byte(payload),
		})
	}
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			first, err := origin.Recv()
			if err != nil {
				return err
			}
			second, err := origin.Recv() // sent only after attempt 0's deadline
			if err != nil {
				return err
			}
			if wire.SeqXID(second.Seq) != wire.SeqXID(first.Seq) || wire.SeqAttempt(second.Seq) != 1 {
				return errors.New("second request is not attempt 1 of the first exchange")
			}
			if err := origin.Send(ack(first, "late")); err != nil {
				return err
			}
			for cl.Stats().StaleReplyDrops == 0 {
				time.Sleep(time.Millisecond)
			}
			if err := origin.Send(ack(second, "second")); err != nil {
				return err
			}
			third, err := origin.Recv()
			if err != nil {
				return err
			}
			return origin.Send(ack(third, "third"))
		}()
	}()
	for _, want := range []string{"second", "third"} {
		r, err := cl.roundTrip(wire.Message{Kind: wire.KindInvalidate, Session: 1, To: 1, Payload: []byte{}})
		if err != nil || string(r.Payload) != want {
			t.Fatalf("round trip returned %q, %v; want %q", r.Payload, err, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.StaleReplyDrops != 1 || st.Retries != 1 {
		t.Errorf("StaleReplyDrops = %d, Retries = %d; want 1, 1", st.StaleReplyDrops, st.Retries)
	}
}
