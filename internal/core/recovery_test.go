package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// --- test transport: programmable send/receive faults ---

// flakyNode wraps a transport node with fault hooks. sendHook runs before
// every Send: returning errSwallowSend makes the frame vanish silently
// (the send "succeeds" but nothing is delivered), any other non-nil error
// fails the send, nil passes the frame through. recvHook runs on every
// received frame: deliver=false swallows it (the reply is lost), delay>0
// holds the receive loop that long before delivering (the reply is late).
// Hooks must be set before the runtime starts and manage their own state
// (use atomics: Send runs on application goroutines, Recv on the receive
// loop).
type flakyNode struct {
	transport.Node
	sendHook func(m wire.Message) error
	recvHook func(m wire.Message) (deliver bool, delay time.Duration)
}

var errSwallowSend = errors.New("flaky: frame swallowed")

func (f *flakyNode) Send(m wire.Message) error {
	if f.sendHook != nil {
		if err := f.sendHook(m); err != nil {
			if errors.Is(err, errSwallowSend) {
				return nil
			}
			return err
		}
	}
	return f.Node.Send(m)
}

func (f *flakyNode) Recv() (wire.Message, error) {
	for {
		m, err := f.Node.Recv()
		if err != nil || f.recvHook == nil {
			return m, err
		}
		deliver, delay := f.recvHook(m)
		if delay > 0 {
			time.Sleep(delay)
		}
		if !deliver {
			m.ReleaseFrame()
			continue
		}
		return m, nil
	}
}

// recoverNet builds a network with one plain origin (id 1) and one client
// (id 2) whose node is wrapped in a flakyNode. mut tweaks the client's
// options after the retry defaults are applied.
func recoverNet(t testing.TB, fn *flakyNode, mut func(o *Options)) (origin, client *Runtime, net *transport.Network) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	onode, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	origin, err = New(Options{ID: 1, Node: onode, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = origin.Close() })
	cnode, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	fn.Node = cnode
	o := Options{
		ID:          2,
		Node:        fn,
		Registry:    reg,
		CallTimeout: 150 * time.Millisecond,
		RetryBudget: 10 * time.Second,
	}
	if mut != nil {
		mut(&o)
	}
	client, err = New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return origin, client, net
}

func importWalk(t testing.TB, client *Runtime, lp wire.LongPtr) int64 {
	t.Helper()
	v, err := client.ImportPtr(lp)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sumTree(client, v)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// --- backoff ---

func TestRetryBackoffDeterministicAndCapped(t *testing.T) {
	for attempt := 0; attempt < 12; attempt++ {
		d1 := retryBackoff(3, 77, attempt)
		d2 := retryBackoff(3, 77, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		base := retryBaseDelay << uint(attempt)
		if base > retryMaxDelay || base <= 0 {
			base = retryMaxDelay
		}
		if d1 < base/2 || d1 > base {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, base/2, base)
		}
	}
	// Distinct exchanges must desynchronize: over a handful of xids at the
	// same attempt, at least two delays differ.
	first := retryBackoff(1, 100, 2)
	varied := false
	for xid := uint64(101); xid < 110; xid++ {
		if retryBackoff(1, xid, 2) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("backoff jitter is constant across exchange ids")
	}
}

// --- transparent retry, end to end ---

func TestRetryRecoversFromSendErrors(t *testing.T) {
	var failed atomic.Int32
	fn := &flakyNode{sendHook: func(m wire.Message) error {
		if m.Kind == wire.KindFetch && failed.Add(1) <= 2 {
			return errors.New("flaky: link down")
		}
		return nil
	}}
	origin, client, _ := recoverNet(t, fn, nil)
	root := buildTree(t, origin, 4)
	lps := treeNodeLPs(t, origin, root)
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if got := importWalk(t, client, lps[0]); got != wantSum(4) {
		t.Errorf("sum = %d, want %d", got, wantSum(4))
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", st.Retries)
	}
	if st.RetrySuccesses < 1 {
		t.Errorf("RetrySuccesses = %d, want >= 1", st.RetrySuccesses)
	}
	if st.RetriesExhausted != 0 {
		t.Errorf("RetriesExhausted = %d, want 0", st.RetriesExhausted)
	}
}

func TestRetryRecoversFromLostReplyAndDropsStale(t *testing.T) {
	// The first fetch reply is held past the client's deadline, then
	// delivered. The client must have moved on (retried), and the late
	// reply must be positively discarded — its frame released, the drop
	// counted — rather than matched to a dead exchange.
	var held atomic.Int32
	fn := &flakyNode{recvHook: func(m wire.Message) (bool, time.Duration) {
		if (m.Kind == wire.KindFetchReply || m.Kind == wire.KindFetchChunk) && held.CompareAndSwap(0, 1) {
			return true, 400 * time.Millisecond
		}
		return true, 0
	}}
	origin, client, _ := recoverNet(t, fn, nil)
	root := buildTree(t, origin, 3)
	lps := treeNodeLPs(t, origin, root)
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if got := importWalk(t, client, lps[0]); got != wantSum(3) {
		t.Errorf("sum = %d, want %d", got, wantSum(3))
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", st.Retries)
	}
	if st.StaleReplyDrops < 1 {
		t.Errorf("StaleReplyDrops = %d, want >= 1 (the held reply arrived after its exchange died)", st.StaleReplyDrops)
	}
}

func TestRetriesExhaustedSurfacesError(t *testing.T) {
	fn := &flakyNode{sendHook: func(m wire.Message) error {
		if m.Kind == wire.KindFetch {
			return errors.New("flaky: link down")
		}
		return nil
	}}
	origin, client, _ := recoverNet(t, fn, func(o *Options) {
		o.RetryBudget = 200 * time.Millisecond
		o.MaxRetries = 2
	})
	root := buildTree(t, origin, 2)
	lps := treeNodeLPs(t, origin, root)
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	v, err := client.ImportPtr(lps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sumTree(client, v); err == nil {
		t.Fatal("walk succeeded with every fetch send failing")
	}
	if got := client.Stats().RetriesExhausted; got < 1 {
		t.Errorf("RetriesExhausted = %d, want >= 1", got)
	}
}

// TestLazyFetchRetryCountsEveryAttempt: a lazy dereference whose first
// FETCH is lost is retried, and Stats.FetchesSent counts both messages
// the wire carried, as the demand fetch path does.
func TestLazyFetchRetryCountsEveryAttempt(t *testing.T) {
	var fetches atomic.Int32
	fn := &flakyNode{sendHook: func(m wire.Message) error {
		if m.Kind == wire.KindFetch && fetches.Add(1) == 1 {
			return errSwallowSend
		}
		return nil
	}}
	origin, client, _ := recoverNet(t, fn, func(o *Options) { o.Policy = PolicyLazy })
	root := buildTree(t, origin, 1)
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	v, err := client.ImportPtr(root.LP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deref(v); err != nil { // one lazy callback
		t.Fatal(err)
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); fetches.Load() != 2 || st.Retries != 1 || st.FetchesSent != 2 {
		t.Errorf("%d FETCH frames sent, %d retries, FetchesSent = %d; want 2, 1, 2",
			fetches.Load(), st.Retries, st.FetchesSent)
	}
}

// --- at-most-once execution under retries ---

func TestCallRetryExecutesExactlyOnce(t *testing.T) {
	// The origin's first Return is swallowed; the client times out and
	// retries the call. The origin's reply cache must answer the retry
	// without running the handler again.
	var swallowed atomic.Int32
	fn := &flakyNode{recvHook: func(m wire.Message) (bool, time.Duration) {
		if m.Kind == wire.KindReturn && swallowed.CompareAndSwap(0, 1) {
			return false, 0
		}
		return true, 0
	}}
	origin, client, _ := recoverNet(t, fn, nil)
	var runs atomic.Int32
	err := origin.Register("bump", func(*Ctx, []Value) ([]Value, error) {
		return []Value{Int64Value(int64(runs.Add(1)))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res, err := client.Call(1, "bump", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Int64(); got != 1 {
		t.Errorf("call result = %d, want 1", got)
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("handler ran %d times, want exactly 1", got)
	}
	ost := origin.Stats()
	if ost.DedupReplays < 1 {
		t.Errorf("origin DedupReplays = %d, want >= 1", ost.DedupReplays)
	}
	if got := client.Stats().Retries; got < 1 {
		t.Errorf("client Retries = %d, want >= 1", got)
	}
}

func TestWriteBackRetryDedupedByOrigin(t *testing.T) {
	// The write-back's ack is swallowed once: the retried WRITEBACK must
	// be answered from the reply cache, not re-applied.
	var swallowed atomic.Int32
	fn := &flakyNode{recvHook: func(m wire.Message) (bool, time.Duration) {
		if m.Kind == wire.KindWriteBackAck && swallowed.CompareAndSwap(0, 1) {
			return false, 0
		}
		return true, 0
	}}
	origin, client, _ := recoverNet(t, fn, func(o *Options) {
		o.CheckInvariants = true
	})
	root := buildTree(t, origin, 2)
	lps := treeNodeLPs(t, origin, root)
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	v, err := client.ImportPtr(lps[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := client.Deref(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 7777); err != nil {
		t.Fatal(err)
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}
	ov, err := origin.ImportPtr(lps[0])
	if err != nil {
		t.Fatal(err)
	}
	oref, err := origin.Deref(ov)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := oref.Int("data", 0); err != nil || got != 7777 {
		t.Errorf("origin data = %d, %v; want 7777", got, err)
	}
	if got := origin.Stats().DedupReplays; got < 1 {
		t.Errorf("origin DedupReplays = %d, want >= 1", got)
	}
}

// --- incarnation fencing ---

func TestIncarnationFenceOnOriginRestart(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id, inc uint32) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: id, Node: node, Registry: reg, Incarnation: inc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	origin := mk(1, 1)
	client := mk(2, 0)
	root := buildTree(t, origin, 3)
	lps := treeNodeLPs(t, origin, root)

	// Session 1 records the origin's incarnation (1) and leaves the
	// client holding warm state for it.
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if got := importWalk(t, client, lps[0]); got != wantSum(3) {
		t.Fatalf("session 1 sum = %d, want %d", got, wantSum(3))
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}

	// The origin crashes and restarts with a fresh heap.
	_ = origin.Close()
	_ = mk(1, 2)

	// The client's next exchange with the origin observes the new
	// incarnation and must fail typed — not retry, not silently degrade
	// into reading resurrected addresses.
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	v, err := client.ImportPtr(lps[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = sumTree(client, v)
	if !errors.Is(err, ErrOriginRestarted) {
		t.Fatalf("walk after origin restart: err = %v, want ErrOriginRestarted", err)
	}
	if got := client.Stats().FenceTrips; got < 1 {
		t.Errorf("FenceTrips = %d, want >= 1", got)
	}
}
