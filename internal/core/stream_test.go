package core

import (
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
	"smartrpc/internal/wire"
)

// streamNet builds a server (id 1) plus n client runtimes (ids 100+i) on
// one in-memory network, like pipelineNet, but also lets the test mutate
// the server's options — streaming is an origin-side knob, so chunked
// replies need a server with a lowered StreamChunkBytes.
func streamNet(t testing.TB, n int, serverMut, clientMut func(o *Options)) (*transport.Network, *Runtime, []*Runtime) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id uint32, mut func(o *Options)) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg, Policy: PolicySmart}
		if mut != nil {
			mut(&o)
		}
		rt, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	server := mk(1, serverMut)
	clients := make([]*Runtime, n)
	for i := range clients {
		clients[i] = mk(100+uint32(i), clientMut)
	}
	return net, server, clients
}

// TestStreamedFetchCorrectness: with the origin's streaming threshold
// forced far below the closure budget, every demand fetch becomes a
// multi-chunk stream — the faulting access unblocks on chunk 0 while the
// rest of the closure drains in the background. The chase must still see
// exactly the right values, the network must actually have carried chunk
// frames, and session end must have drained every background stream.
func TestStreamedFetchCorrectness(t *testing.T) {
	net, server, clients := streamNet(t, 1,
		func(o *Options) { o.StreamChunkBytes = 128 },
		func(o *Options) { o.ClosureSize = 4096 })
	cl := clients[0]
	root, want := buildChain(t, server, 1024, 0)

	got, err := chase(cl, root)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	if n := net.Stats().KindMessages(uint32(wire.KindFetchChunk)); n == 0 {
		t.Error("no chunk frames on the wire — streaming never engaged")
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestJoinerOnPartiallyDrainedStream: a real link delay keeps speculative
// chunk streams in flight while the application keeps chasing, so demand
// faults land on pages whose exchange has already signaled its primary
// and is still draining trailing chunks in the background. The joiner
// must wait for the drain to finish (registry entry released), not
// re-request the page or read a half-installed closure. Run under -race
// this is the partially-drained-join concurrency check.
func TestJoinerOnPartiallyDrainedStream(t *testing.T) {
	net, server, clients := streamNet(t, 1,
		func(o *Options) { o.StreamChunkBytes = 128 },
		func(o *Options) {
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
		t.Errorf("no demand fault joined an in-flight streamed exchange: %+v", st)
	}
	if n := net.Stats().KindMessages(uint32(wire.KindFetchChunk)); n == 0 {
		t.Error("no chunk frames on the wire — streaming never engaged")
	}
	if sent, served := st.FetchesSent, server.Stats().FetchesServed; sent != served {
		t.Errorf("client sent %d fetches, server served %d", sent, served)
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestSyncPrefetchOverChunkedStream: under SyncPrefetch the speculative
// completion runs inline on the demand goroutine and must consume its
// whole chunk stream there — speculative exchanges never early-unblock,
// so a wedged drain would hang the chase. The watchdog turns that hang
// into a failure instead of a test timeout.
func TestSyncPrefetchOverChunkedStream(t *testing.T) {
	net, server, clients := streamNet(t, 1,
		func(o *Options) { o.StreamChunkBytes = 128 },
		func(o *Options) {
			o.Prefetch = true
			o.SyncPrefetch = true
			o.ClosureSize = 256
		})
	cl := clients[0]
	root, want := buildChain(t, server, 512, 0)

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
		t.Fatal("chase wedged: inline speculative completion never finished its chunk stream")
	}
	if chaseErr != nil {
		t.Fatal(chaseErr)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	if n := net.Stats().KindMessages(uint32(wire.KindFetchChunk)); n == 0 {
		t.Error("no chunk frames on the wire — streaming never engaged")
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestLazyFetchAcceptsStreamedReply: the lazy policy's per-dereference
// callback is a FETCH like any other, and the origin — not the requester
// — picks the reply form. With the origin's chunk limit below one node's
// encoding, every callback for a node with children is answered by a
// chunk sequence; the callback must take it as it takes the single frame.
// (It used to wait under a registration that only a monolithic reply
// could find: the chunks were counted as stale drops and the dereference
// ended in ErrDeadline.) The second walk is over a node type whose single
// datum is several chunk limits long.
func TestLazyFetchAcceptsStreamedReply(t *testing.T) {
	const fatType types.ID = 8
	reg := newTestRegistry(t)
	reg.MustRegister(&types.Desc{
		ID:   fatType,
		Name: "Fat",
		Fields: []types.Field{
			{Name: "pad", Kind: types.Uint8, Count: 100},
			{Name: "next", Kind: types.Ptr, Elem: fatType},
		},
	})
	caller, callee := pair(t, func(id uint32, o *Options) {
		o.Registry = reg
		o.Policy = PolicyLazy
		o.CallTimeout = 2 * time.Second
		if id == 1 {
			o.StreamChunkBytes = 16
		}
	})
	chunks := &RecordingTracer{}
	caller.SetTracer(chunks)
	registerSumProc(t, callee)
	err := callee.Register("sumFat", func(ctx *Ctx, args []Value) ([]Value, error) {
		var sum int64
		for v := args[0]; !v.IsNullPtr(); {
			ref, err := ctx.Runtime().Deref(v)
			if err != nil {
				return nil, err
			}
			b, err := ref.Uint("pad", 99)
			if err != nil {
				return nil, err
			}
			sum += int64(b)
			if v, err = ref.Ptr("next", 0); err != nil {
				return nil, err
			}
		}
		return []Value{Int64Value(sum)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	res := sessionCall(t, caller, 2, "sumTree", buildTree(t, caller, 3))
	if got := res[0].Int64(); got != wantSum(3) {
		t.Errorf("lazy tree sum over a streaming origin = %d, want %d", got, wantSum(3))
	}

	next := NullPtr(fatType)
	for i := 3; i >= 1; i-- {
		v, err := caller.NewObject(fatType)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := caller.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetUint("pad", 99, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("next", 0, next); err != nil {
			t.Fatal(err)
		}
		next = v
	}
	res = sessionCall(t, caller, 2, "sumFat", next)
	if got := res[0].Int64(); got != 6 {
		t.Errorf("lazy walk over fat nodes = %d, want 6", got)
	}

	if chunks.Count(EvChunkSent) == 0 {
		t.Error("the origin never streamed a reply — the test exercised nothing")
	}
	if st := callee.Stats(); st.StaleReplyDrops != 0 || st.Retries != 0 {
		t.Errorf("callee dropped %d reply frames as stale, retried %d times; want 0, 0", st.StaleReplyDrops, st.Retries)
	}
}

// installModes are the two reply forms of the closure-install path, with
// the allocation ceiling TestInstallClosureAllocs holds each to.
var installModes = []struct {
	name    string
	chunk   int
	ceiling float64
}{
	{"streamed", 256, 2000},
	{"monolithic", -1, 60},
}

// installSetup builds a server holding a 1024-node chain and a client
// that refetches and reinstalls the whole chain on every chase (warm
// caching off), after one warm-up chase that primes lazily-built tables
// on both ends.
func installSetup(t testing.TB, chunk int) (*Runtime, wire.LongPtr, int64) {
	_, server, clients := streamNet(t, 1,
		func(o *Options) { o.StreamChunkBytes = chunk },
		func(o *Options) {
			o.ClosureSize = 1 << 20
			o.DisableWarmCache = true
		})
	root, want := buildChain(t, server, 1024, 0)
	if got, err := chase(clients[0], root); err != nil || got != want {
		t.Fatalf("warm-up chase = %d, %v; want %d", got, err, want)
	}
	return clients[0], root, want
}

// TestInstallClosureAllocs is the install path's allocation gate: the
// zero-copy decode/install path must stay cheap. Streamed on 256-byte
// chunks it costs under one allocation a node (measured 413 for the
// 1024-node chain); monolithic, 40 flat — an install batch builds no
// per-batch map and copies no page's rows, and a reply decodes into a
// pooled item vector. The ceilings were set about 50% over the figures of
// their day (1 346 and 40): pool noise fits under them, a lost pooling or
// a per-item copy does not.
func TestInstallClosureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, mode := range installModes {
		t.Run(mode.name, func(t *testing.T) {
			cl, root, want := installSetup(t, mode.chunk)
			n := testing.AllocsPerRun(20, func() {
				if got, err := chase(cl, root); err != nil || got != want {
					t.Fatalf("chase = %d, %v; want %d", got, err, want)
				}
			})
			if n > mode.ceiling {
				t.Errorf("installing the closure allocates %.0f times, ceiling %.0f", n, mode.ceiling)
			}
			t.Logf("%s install: %.0f allocs", mode.name, n)
		})
	}
}

// BenchmarkInstallClosure measures the client-side cost of receiving and
// installing one full closure — the decode/install path the zero-copy
// chunk plumbing exists to keep cheap.
func BenchmarkInstallClosure(b *testing.B) {
	for _, mode := range installModes {
		b.Run(mode.name, func(b *testing.B) {
			cl, root, want := installSetup(b, mode.chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := chase(cl, root)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("chase sum = %d, want %d", got, want)
				}
			}
		})
	}
}
