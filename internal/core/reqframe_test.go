package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// requestLedger holds one reference per passage to every pooled FETCH
// request frame the nodes sharing it send or receive: in process, the
// origin receives the very buffer the client sent.
type requestLedger struct {
	mu    sync.Mutex
	holds map[*wire.FrameBuf]int
}

func (l *requestLedger) hold(m *wire.Message) {
	if m.Kind != wire.KindFetch || m.Frame == nil {
		return
	}
	m.Frame.Retain()
	l.mu.Lock()
	l.holds[m.Frame]++
	l.mu.Unlock()
}

// check reports every frame some holder besides the ledger never
// released, then drops the ledger's own holds.
func (l *requestLedger) check(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.holds) == 0 {
		t.Error("no FETCH request passed in a pooled frame")
	}
	for fb, k := range l.holds {
		if n := fb.Refs(); n != k {
			t.Errorf("a request frame that passed %d times holds %d references besides the test's, want 0", k, n-k)
		}
		for range k {
			fb.Release()
		}
	}
}

// fetchRequests decorates a transport.Node: it enters every FETCH request
// frame it sends or receives in the ledger, and drops the next
// dropReplies FETCH reply frames it is asked to send.
type fetchRequests struct {
	transport.Node
	ledger      *requestLedger
	dropReplies atomic.Int32
}

func (r *fetchRequests) Send(m wire.Message) error {
	if (m.Kind == wire.KindFetchReply || m.Kind == wire.KindFetchChunk) &&
		r.dropReplies.Load() > 0 && r.dropReplies.Add(-1) >= 0 {
		m.ReleaseFrame() // Send consumes the reference, delivered or not
		return nil
	}
	r.ledger.hold(&m)
	return r.Node.Send(m)
}

func (r *fetchRequests) Recv() (wire.Message, error) {
	m, err := r.Node.Recv()
	if err == nil {
		r.ledger.hold(&m)
	}
	return m, err
}

// TestFetchRequestFramesReleased follows every FETCH request frame, from
// the offer that encodes it to the last holder's release, over the
// in-process switch and over loopback TCP: a cold session, a warm one
// (hashed FETCHes), one whose first FETCH reply is dropped so the request
// is sent again, and an abort with a streamed exchange's frames parked.
// Once both runtimes have closed, every request frame sent or received
// must hold no reference but the test's.
func TestFetchRequestFramesReleased(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "local"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			ledger := &requestLedger{holds: make(map[*wire.FrameBuf]int)}
			origin, cl, on := requestFramePair(t, tcp, ledger)
			const levels = 8 // 255 nodes
			root := buildTree(t, origin, levels)
			v, err := cl.ImportPtr(root.LP)
			if err != nil {
				t.Fatal(err)
			}
			walk := func(what string, want int64) {
				t.Helper()
				if err := cl.BeginSession(); err != nil {
					t.Fatal(err)
				}
				sum, err := sumTree(cl, v)
				if err != nil {
					t.Fatalf("%s session: %v", what, err)
				}
				if sum != want {
					t.Fatalf("%s session sum = %d, want %d", what, sum, want)
				}
				if err := cl.EndSession(); err != nil {
					t.Fatal(err)
				}
			}
			walk("cold", wantSum(levels))
			ref, err := origin.Deref(root)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.SetInt("data", 0, 1000); err != nil {
				t.Fatal(err)
			}
			walk("warm", wantSum(levels)-1+1000)
			if cl.Stats().CohRevalidateMsgs == 0 {
				t.Fatal("the warm session sent no hashed FETCH")
			}
			on.dropReplies.Store(1)
			walk("retried", wantSum(levels)-1+1000)
			if cl.Stats().Retries == 0 {
				t.Fatal("the dropped reply forced no retry")
			}

			// A cold chain longer than one FETCH's closure: the fault's
			// install sets the prefetcher off down the rest of it, and the
			// speculative exchange's background receiver parks its chunks,
			// which the abort drops.
			chain, _ := buildChain(t, origin, 1024, 0)
			if err := cl.BeginSession(); err != nil {
				t.Fatal(err)
			}
			head, err := cl.ImportPtr(chain)
			if err != nil {
				t.Fatal(err)
			}
			href, err := cl.Deref(head)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := href.Int("data", 0); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a streamed exchange to park a frame", func() bool { return cl.ParkedFrames() > 0 })
			cl.AbortSession()

			_ = cl.Close()
			_ = origin.Close()
			ledger.check(t)
		})
	}
}

// requestFramePair starts an origin (1) and a client (2), each on a
// fetchRequests node entering frames in ledger, over the in-process
// switch or loopback TCP. The origin streams any reply above 128 bytes;
// the client prefetches, and retries a lost reply after 200 ms.
func requestFramePair(t *testing.T, tcp bool, ledger *requestLedger) (origin, cl *Runtime, on *fetchRequests) {
	t.Helper()
	reg := newTestRegistry(t)
	var net *transport.Network
	if !tcp {
		var err error
		if net, err = transport.NewNetwork(netsim.Model{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
	}
	mk := func(id uint32, book map[uint32]string, mut func(o *Options)) (*Runtime, *fetchRequests, string) {
		var (
			node transport.Node
			addr string
		)
		if tcp {
			n, err := transport.ListenTCP(id, "127.0.0.1:0", book)
			if err != nil {
				t.Fatal(err)
			}
			node, addr = n, n.Addr()
		} else {
			n, err := net.Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			node = n
		}
		fr := &fetchRequests{Node: node, ledger: ledger}
		o := Options{ID: id, Node: fr, Registry: reg, Policy: PolicySmart, CallTimeout: 200 * time.Millisecond, RetryBudget: 20 * time.Second}
		mut(&o)
		rt, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt, fr, addr
	}
	origin, on, addr := mk(1, nil, func(o *Options) { o.StreamChunkBytes = 128 })
	cl, _, _ = mk(2, map[uint32]string{1: addr}, func(o *Options) {
		o.ClosureSize = 4096
		o.Prefetch = true
	})
	return origin, cl, on
}
