package core

import (
	"sync"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// pipelineNet builds a server (id 1) plus n client runtimes (ids 100+i)
// on one in-memory network and returns the network for link-delay
// control. Clients run PolicySmart with the options mutation applied.
func pipelineNet(t testing.TB, n int, mut func(o *Options)) (*transport.Network, *Runtime, []*Runtime) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id uint32, client bool) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg, Policy: PolicySmart}
		if client && mut != nil {
			mut(&o)
		}
		rt, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	server := mk(1, false)
	clients := make([]*Runtime, n)
	for i := range clients {
		clients[i] = mk(100+uint32(i), true)
	}
	return net, server, clients
}

// buildChain links n nodes through their left pointers in rt's heap and
// returns the head's long pointer plus the expected data sum.
func buildChain(t testing.TB, rt *Runtime, n int, base int64) (wire.LongPtr, int64) {
	t.Helper()
	next := NullPtr(nodeType)
	var sum int64
	for i := n; i >= 1; i-- {
		v, err := rt.NewObject(nodeType)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rt.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, base+int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("left", 0, next); err != nil {
			t.Fatal(err)
		}
		sum += base + int64(i)
		next = v
	}
	return next.LP, sum
}

// chase walks a chain by dereference inside its own session.
func chase(rt *Runtime, root wire.LongPtr) (int64, error) {
	v, err := rt.ImportPtr(root)
	if err != nil {
		return 0, err
	}
	if err := rt.BeginSession(); err != nil {
		return 0, err
	}
	var sum int64
	for !v.IsNullPtr() {
		ref, err := rt.Deref(v)
		if err != nil {
			return 0, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return 0, err
		}
		sum += d
		if v, err = ref.Ptr("left", 0); err != nil {
			return 0, err
		}
	}
	if err := rt.EndSession(); err != nil {
		return 0, err
	}
	return sum, nil
}

// TestDemandFaultCoalescesWithPrefetch: with a real link delay widening
// the window, the application's demand fault must land while the
// speculative exchange for the same page is still in flight, and join it
// through the registry instead of re-requesting — the pf_coalesced
// counter proves the join, and the equal fetch counts on both ends prove
// no duplicate request ever went out.
func TestDemandFaultCoalescesWithPrefetch(t *testing.T) {
	net, server, clients := pipelineNet(t, 1, func(o *Options) {
		o.Prefetch = true
		o.ClosureSize = 2048
	})
	cl := clients[0]
	root, want := buildChain(t, server, 1024, 0)

	net.SetLinkDelay(2 * time.Millisecond)
	defer net.SetLinkDelay(0)
	got, err := chase(cl, root)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	st := cl.Stats()
	if st.PfCoalesced == 0 {
		t.Errorf("no demand fault coalesced onto an in-flight prefetch: %+v", st)
	}
	if st.PfIssued == 0 {
		t.Errorf("prefetcher issued no speculative fetches: %+v", st)
	}
	if sent, served := st.FetchesSent, server.Stats().FetchesServed; sent != served {
		t.Errorf("client sent %d fetches, server served %d", sent, served)
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestSyncPrefetchOnPartialDemandPage: with a closure budget smaller than
// one page of nodes, the demand-faulted page still holds non-resident
// frontier entries when its own exchange completes, so the prefetcher's
// candidate list includes the very page the demand fault is completing.
// Under SyncPrefetch the speculative completion runs inline on the demand
// goroutine — it must register its own exchange after the demand slot is
// released, not join the goroutine's own still-held in-flight entry and
// deadlock waiting on itself.
func TestSyncPrefetchOnPartialDemandPage(t *testing.T) {
	_, server, clients := pipelineNet(t, 1, func(o *Options) {
		o.Prefetch = true
		o.SyncPrefetch = true
		o.ClosureSize = 128
	})
	cl := clients[0]
	root, want := buildChain(t, server, 256, 0)

	done := make(chan struct{})
	var got int64
	var chaseErr error
	go func() {
		defer close(done)
		got, chaseErr = chase(cl, root)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("chase wedged: inline speculative completion joined its own in-flight entry")
	}
	if chaseErr != nil {
		t.Fatal(chaseErr)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestConcurrentClientFetch drives several Call-free client spaces, each
// chasing its own chain in its own session against one server — the
// server's bounded worker pool serves their FETCH streams concurrently.
// Run under -race this is the serve-pool concurrency check.
func TestConcurrentClientFetch(t *testing.T) {
	const nClients = 4
	_, server, clients := pipelineNet(t, nClients, func(o *Options) {
		o.Prefetch = true
		o.ClosureSize = 1024
	})
	roots := make([]wire.LongPtr, nClients)
	wants := make([]int64, nClients)
	for i := range clients {
		roots[i], wants[i] = buildChain(t, server, 512, int64(i)*1000)
	}

	var wg sync.WaitGroup
	errs := make([]error, nClients)
	sums := make([]int64, nClients)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Runtime) {
			defer wg.Done()
			sums[i], errs[i] = chase(cl, roots[i])
		}(i, cl)
	}
	wg.Wait()

	var sent uint64
	for i := range clients {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if sums[i] != wants[i] {
			t.Errorf("client %d sum = %d, want %d", i, sums[i], wants[i])
		}
		if n := clients[i].InflightFetches(); n != 0 {
			t.Errorf("client %d leaked %d in-flight registry entries", i, n)
		}
		sent += clients[i].Stats().FetchesSent
	}
	if served := server.Stats().FetchesServed; served != sent {
		t.Errorf("clients sent %d fetches, server served %d", sent, served)
	}
}

// BenchmarkPendingTable measures the pending table under parallel load.
// The workload mirrors an exchange: consecutive sequence numbers from one
// atomic counter, registered, answered by one final frame, popped.
func BenchmarkPendingTable(b *testing.B) {
	rt := &Runtime{pending: newPendingTable()}
	b.RunParallel(func(pb *testing.PB) {
		x := &exchange{rt: rt, wake: make(chan struct{}, 1)}
		for pb.Next() {
			x.seq = rt.seq.Add(1)
			rt.pending.register(x)
			if !rt.pending.deliver(wire.Message{Seq: x.seq}, true) {
				b.Fatal("lost pending entry")
			}
			if _, ok, clean := x.pop(); !ok || !clean {
				b.Fatal("lost reply frame")
			}
			<-x.wake
		}
	})
}

// TestExchangeAllocs is the exchange engine's allocation gate: what one
// exchange allocates beyond encoding its request and decoding and
// installing its reply. The origin is a raw node answering from canned,
// pre-encoded replies — a FETCH's in a pooled frame, as a serve sends it —
// and releasing each FETCH request's pooled frame as a serve does, and
// the in-process transport allocates nothing, so every allocation counted
// is the client's. A pooled exchange (queue and wake channel included),
// callbacks that never leave the stack and a request encoded into a
// pooled frame make the engine's share zero, which the gate holds it to:
// a FETCH once paid five (retry closure, stream buffer, its wake channel,
// the exchange record, the first queue append).
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Options{ID: 2, Node: node, Registry: newTestRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	// One TreeNode at the origin, both children null.
	lp := wire.LongPtr{Space: 1, Addr: 0x1000, Type: nodeType}
	body := make([]byte, 2*wire.EncodedLongPtrSize+8)
	fetchReply := (&wire.ItemsPayload{Items: []wire.DataItem{{LP: lp, Bytes: body}}}).Encode()
	origin := rawAttach(t, net, 1)
	go func() {
		for {
			m, err := origin.Recv()
			if err != nil {
				return
			}
			// The request is over once read, as serveFetch releases it.
			m.ReleaseFrame()
			r := wire.Message{Kind: m.Kind.ReplyKind(), Session: m.Session, Seq: m.Seq, To: m.From, Payload: []byte{}}
			if m.Kind == wire.KindFetch {
				// In a pooled frame, as a real origin sends it: the client
				// releases it after installing, and the next reply reuses it.
				fb := wire.NewChunkBuf()
				fb.Enc().PutFixedOpaque(fetchReply)
				r.Payload, r.Frame = fb.Enc().Bytes(), fb
			}
			r.Seal()
			_ = origin.Send(r)
		}
	}()

	if err := cl.BeginSession(); err != nil {
		t.Fatal(err)
	}
	sess := cl.Session()
	v, err := cl.ImportPtr(lp)
	if err != nil {
		t.Fatal(err)
	}
	pn := cl.space.PageOf(v.Addr)
	wants := []wire.LongPtr{lp}
	// fetchFrom asks for what the table says is missing, so every measured
	// run first turns the installed row back into a plain want.
	unfetch := func() {
		cl.table.DemoteAll()
		cl.table.ClearStale(wants)
	}
	newFetch := func() *inflightFetch {
		return &inflightFetch{fetchKey: fetchKey{pn: pn, origin: 1}, sess: sess}
	}

	roundTrip := testing.AllocsPerRun(200, func() {
		r, err := cl.roundTrip(wire.Message{Kind: wire.KindInvalidate, Session: sess, To: 1, Payload: []byte{}})
		if err != nil || r.Err != "" {
			t.Fatalf("round trip: %v %q", err, r.Err)
		}
	})
	if roundTrip > 1 {
		t.Errorf("an empty-payload round trip allocates %.0f times; want at most 1", roundTrip)
	}

	sent := cl.Stats().FetchesSent
	fetch := testing.AllocsPerRun(200, func() {
		unfetch()
		if _, detached, err := cl.fetchFrom(newFetch(), false); err != nil || detached {
			t.Fatalf("fetch: %v (detached: %v)", err, detached)
		}
	})
	if n := cl.Stats().FetchesSent - sent; n != 201 {
		t.Fatalf("%d FETCHes sent in 201 runs", n)
	}
	// The same request built and encoded and the same reply decoded and
	// installed, with no exchange around them.
	payload := testing.AllocsPerRun(200, func() {
		unfetch()
		f := newFetch()
		cl.offer(f)
		m := wire.Message{Kind: wire.KindFetchReply, Payload: fetchReply}
		if _, err := cl.installFetchFrame(f, m); err != nil || f.frame == nil {
			t.Fatalf("install: %v", err)
		}
		f.frame.Release()
	})
	if fetch-payload > 0 {
		t.Errorf("a monolithic FETCH allocates %.0f times, %.0f of them for its payloads; the exchange may add none",
			fetch, payload)
	}
	t.Logf("allocs per exchange: round trip %.0f, fetch %.0f (payload encode/decode/install %.0f)", roundTrip, fetch, payload)
}
