package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/histcheck"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// histGlue is the tracer that wires a runtime's session lifecycle events
// into a histcheck client, stamping the session-begin and
// end-of-session-ack times the checker's windows are built from.
type histGlue struct{ c *histcheck.Client }

func (g histGlue) Trace(e Event) {
	switch e.Kind {
	case EvSessionBegin:
		g.c.OnSessionBegin()
	case EvSessionEnd:
		g.c.OnSessionEnd()
	}
}

// sharedCluster builds one origin (space 1) plus n client runtimes
// (spaces 2..n+1) on an in-memory network. The mutator sees every
// runtime's options.
func sharedCluster(t testing.TB, n int, mut func(id uint32, o *Options)) (*Runtime, []*Runtime) {
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
		// Concurrent: sessions on different runtimes overlap in real time,
		// so the modified data set needs precise per-object write tracking.
		o := Options{ID: id, Node: node, Registry: reg, Concurrent: true}
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
	origin := mk(1)
	clients := make([]*Runtime, n)
	for i := range clients {
		clients[i] = mk(uint32(i + 2))
	}
	return origin, clients
}

// treeNodeLPs walks a locally built tree and returns every node's long
// pointer in preorder (matching buildTree's value assignment).
func treeNodeLPs(t testing.TB, origin *Runtime, root Value) []wire.LongPtr {
	t.Helper()
	var out []wire.LongPtr
	var walk func(v Value)
	walk = func(v Value) {
		if v.IsNullPtr() {
			return
		}
		out = append(out, v.LP)
		ref, err := origin.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		l, err := ref.Ptr("left", 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ref.Ptr("right", 0)
		if err != nil {
			t.Fatal(err)
		}
		walk(l)
		walk(r)
	}
	walk(root)
	return out
}

// initRecorder seeds the recorder with every node's committed value as
// built at the origin.
func initRecorder(t testing.TB, origin *Runtime, rec *histcheck.Recorder, nodes []wire.LongPtr) {
	t.Helper()
	for _, lp := range nodes {
		v, err := origin.ImportPtr(lp)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := origin.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Init(lp, d)
	}
}

// TestConcurrentSessionsLinearizable is the coherency oracle for
// concurrent shared-origin sessions: K clients hold overlapping sessions
// over one origin's tree, each randomly reading and writing node values
// through the full protocol stack (demand fetch, warm revalidation,
// speculative prefetch, write-back, invalidate fan-out), while a
// histcheck recorder captures every operation. The recorded history must
// be linearizable against a sequential shared-tree model.
func TestConcurrentSessionsLinearizable(t *testing.T) {
	const (
		treeLevels = 5 // 31 nodes
		rounds     = 5
		visits     = 6
	)
	configs := []struct {
		name string
		mut  func(id uint32, o *Options)
	}{
		{"full", func(id uint32, o *Options) {
			// Warm cache and speculative prefetch both on:
			// the richest machinery racing across sessions. SyncPrefetch
			// keeps speculation on the workload goroutines so histories
			// stay reproducible per seed.
			o.CheckInvariants = true
			o.Prefetch = true
			o.SyncPrefetch = true
			o.PageSize = 256
			o.ClosureSize = 256
		}},
		{"ablated", func(id uint32, o *Options) {
			// Seed protocol: no warm cache, no prefetch.
			o.CheckInvariants = true
			o.DisableWarmCache = true
			o.PageSize = 256
			o.ClosureSize = 256
		}},
	}
	for _, cfg := range configs {
		for _, k := range []int{2, 4, 8} {
			for _, ratio := range []float64{0, 0.05, 0.25} {
				name := fmt.Sprintf("%s/clients=%d/mut=%v", cfg.name, k, ratio)
				t.Run(name, func(t *testing.T) {
					origin, clients := sharedCluster(t, k, cfg.mut)
					root := buildTree(t, origin, treeLevels)
					nodes := treeNodeLPs(t, origin, root)
					rec := histcheck.NewRecorder()
					initRecorder(t, origin, rec, nodes)

					var wg sync.WaitGroup
					errs := make([]error, k)
					for ci, rt := range clients {
						hc := rec.Client(ci)
						rt.SetTracer(histGlue{c: hc})
						wg.Add(1)
						go func(ci int, rt *Runtime, hc *histcheck.Client) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(1000*ci) + int64(k)<<20 + int64(ratio*100)))
							for round := 0; round < rounds; round++ {
								hs := hc.Begin()
								if err := rt.BeginSession(); err != nil {
									errs[ci] = err
									hs.Abandon()
									return
								}
								var opErr error
								for v := 0; v < visits; v++ {
									lp := nodes[rng.Intn(len(nodes))]
									pv, err := rt.ImportPtr(lp)
									if err != nil {
										opErr = err
										break
									}
									ref, err := rt.Deref(pv)
									if err != nil {
										opErr = err
										break
									}
									if rng.Float64() < ratio {
										wv := int64(ci+1)*1_000_000 + int64(round)*1_000 + int64(v)
										opErr = hs.Write(lp, wv, func() error {
											return ref.SetInt("data", 0, wv)
										})
									} else {
										_, opErr = hs.Read(lp, func() (int64, error) {
											return ref.Int("data", 0)
										})
									}
									if opErr != nil {
										break
									}
								}
								if opErr != nil {
									errs[ci] = opErr
									rt.AbortSession()
									hs.Abandon()
									return
								}
								if err := rt.EndSession(); err != nil {
									errs[ci] = err
									rt.AbortSession()
									hs.Abandon()
									return
								}
								hs.Commit()
							}
						}(ci, rt, hc)
					}
					wg.Wait()
					for ci, err := range errs {
						if err != nil {
							t.Fatalf("client %d: %v", ci, err)
						}
					}
					start := time.Now()
					res := rec.Check()
					elapsed := time.Since(start)
					if !res.Ok {
						t.Fatalf("history not linearizable:\n%s", res.Err())
					}
					if res.Ops == 0 {
						t.Fatal("recorder captured no operations")
					}
					if elapsed > 5*time.Second {
						t.Errorf("checking %d ops over %d partitions took %v, want < 5s", res.Ops, res.Partitions, elapsed)
					}
					t.Logf("checked %d ops over %d partitions in %v", res.Ops, res.Partitions, elapsed)
				})
			}
		}
	}
}

// sessionRead performs one recorded read of lp's data field inside the
// runtime's current session.
func sessionRead(t *testing.T, rt *Runtime, hs *histcheck.Session, lp wire.LongPtr) int64 {
	t.Helper()
	v, err := rt.ImportPtr(lp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rt.Deref(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hs.Read(lp, func() (int64, error) { return ref.Int("data", 0) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestHistcheckCatchesSkippedInvalidate seeds the one coherency fault the
// runtime can express (skipLocalInvalidate makes EndSession skip §3.4's
// local invalidation, leaving the session's pages readable afterwards)
// and proves the history checker catches the resulting stale read with a
// small, self-explanatory counterexample.
func TestHistcheckCatchesSkippedInvalidate(t *testing.T) {
	origin, clients := sharedCluster(t, 2, func(id uint32, o *Options) {
		// No warm cache: the faulty runtime keeps the stale copy as an
		// exact resident page, the sharpest version of the bug (warm
		// demotion would be skipped by the same fault anyway).
		o.DisableWarmCache = true
	})
	reader, writer := clients[0], clients[1]
	reader.skipLocalInvalidate = true

	root := buildTree(t, origin, 3)
	nodes := treeNodeLPs(t, origin, root)
	rootLP := nodes[0]
	rec := histcheck.NewRecorder()
	initRecorder(t, origin, rec, nodes)
	rc, wc := rec.Client(0), rec.Client(1)
	reader.SetTracer(histGlue{c: rc})
	writer.SetTracer(histGlue{c: wc})

	// Reader session 1: cache the root (committed value 1).
	hs := rc.Begin()
	if err := reader.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if got := sessionRead(t, reader, hs, rootLP); got != 1 {
		t.Fatalf("initial read = %d, want 1", got)
	}
	if err := reader.EndSession(); err != nil {
		t.Fatal(err)
	}
	hs.Commit()

	// Writer session: overwrite the root and commit cleanly.
	ws := wc.Begin()
	if err := writer.BeginSession(); err != nil {
		t.Fatal(err)
	}
	wv, err := writer.ImportPtr(rootLP)
	if err != nil {
		t.Fatal(err)
	}
	wref, err := writer.Deref(wv)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Write(rootLP, 777, func() error { return wref.SetInt("data", 0, 777) }); err != nil {
		t.Fatal(err)
	}
	if err := writer.EndSession(); err != nil {
		t.Fatal(err)
	}
	ws.Commit()

	// Reader session 2: the skipped invalidation left the old page
	// resident, so this read never faults and observes the stale value.
	hs2 := rc.Begin()
	if err := reader.BeginSession(); err != nil {
		t.Fatal(err)
	}
	stale := sessionRead(t, reader, hs2, rootLP)
	if err := reader.EndSession(); err != nil {
		t.Fatal(err)
	}
	hs2.Commit()
	if stale != 1 {
		t.Fatalf("seeded fault did not produce a stale read: got %d (want stale 1)", stale)
	}

	res := rec.Check()
	if res.Ok {
		t.Fatal("checker accepted a history containing a stale read")
	}
	if len(res.Counterexamples) != 1 {
		t.Fatalf("got %d counterexamples, want 1:\n%s", len(res.Counterexamples), res.Err())
	}
	ce := res.Counterexamples[0]
	if len(ce) > 12 {
		t.Errorf("counterexample has %d operations, want <= 12:\n%s", len(ce), res.Err())
	}
	t.Logf("shrunk counterexample (%d ops):\n%s", len(ce), res.Err())
}

// cloneItems deep-copies a closure reply so it cannot alias scratch
// buffers that are about to be recycled.
func cloneItems(items []wire.DataItem) []wire.DataItem {
	out := make([]wire.DataItem, len(items))
	for i, it := range items {
		out[i] = it
		out[i].Bytes = append([]byte(nil), it.Bytes...)
	}
	return out
}

// itemsDiffer compares two closure replies item by item.
func itemsDiffer(a, b []wire.DataItem) string {
	if len(a) != len(b) {
		return fmt.Sprintf("item count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].LP != b[i].LP {
			return fmt.Sprintf("item %d: LP %v != %v", i, a[i].LP, b[i].LP)
		}
		if a[i].Dirty != b[i].Dirty || a[i].Delta != b[i].Delta || a[i].BaseVer != b[i].BaseVer {
			return fmt.Sprintf("item %d: flags diverge", i)
		}
		if !bytes.Equal(a[i].Bytes, b[i].Bytes) {
			return fmt.Sprintf("item %d: body bytes diverge", i)
		}
	}
	return ""
}

// TestServeScratchPoolNoAliasing hammers the pooled closure-build scratch
// from 8 goroutines with interleaved request shapes and byte-compares
// every reply against a reference built with a private working set:
// pooled reuse must never let one request's reply alias or inherit
// another request's state.
func TestServeScratchPoolNoAliasing(t *testing.T) {
	rt, _ := pair(t, nil)
	root := buildTree(t, rt, 5)
	nodes := treeNodeLPs(t, rt, root)

	// Distinct (wants, budget) shapes, like concurrent clients fetching
	// different subtrees under different closure budgets.
	type shape struct {
		wants  []wire.LongPtr
		budget int
		ref    []wire.DataItem
	}
	picks := [][]wire.LongPtr{
		{nodes[0]},
		{nodes[1], nodes[len(nodes)/2]},
		{nodes[len(nodes)-1]},
		{nodes[2], nodes[3], nodes[5]},
	}
	budgets := []int{64, 256, 1024, 1 << 16}
	shapes := make([]shape, 0, len(picks)*len(budgets))
	for _, wants := range picks {
		for _, budget := range budgets {
			ref, err := rt.buildClosureItems(wants, nil, budget, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, shape{wants: wants, budget: budget, ref: cloneItems(ref)})
		}
	}

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				s := shapes[(w*7+it)%len(shapes)]
				// Exactly serveFetch's discipline: pooled scratch, read
				// lock across the build, reset+return after the reply is
				// consumed.
				sc := serveScratchPool.Get().(*serveScratch)
				rt.serveMu.RLock()
				items, err := rt.buildClosureItems(s.wants, nil, s.budget, sc, nil)
				rt.serveMu.RUnlock()
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, it, err)
				} else if d := itemsDiffer(items, s.ref); d != "" {
					t.Errorf("worker %d iter %d (budget %d): reply diverges from reference: %s",
						w, it, s.budget, d)
				}
				sc.reset()
				serveScratchPool.Put(sc)
			}
		}(w)
	}
	wg.Wait()
}

// TestWriteBackRacingFetchesServesNoStaleValue is a -race stress of the
// origin's serve path against its write-back path: one client repeatedly
// modifies shared data and writes it back while two others fetch it. No
// reader may ever observe a value the origin never held, values are
// monotone per reader, and the final read sees the last write.
func TestWriteBackRacingFetchesServesNoStaleValue(t *testing.T) {
	_, server, clients := pipelineNet(t, 3, nil)
	head, _ := buildChain(t, server, 1, 0) // one node, data = 1
	const bumps = 20

	readVal := func(cl *Runtime) (int64, error) { return chase(cl, head) }

	errc := make(chan error, len(clients))
	done := make(chan struct{})
	var writerWg, readerWg sync.WaitGroup
	writerWg.Add(1)
	go func() { // writer: client 0
		defer writerWg.Done()
		cl := clients[0]
		for i := 0; i < bumps; i++ {
			err := func() error {
				v, err := cl.ImportPtr(head)
				if err != nil {
					return err
				}
				if err := cl.BeginSession(); err != nil {
					return err
				}
				ref, err := cl.Deref(v)
				if err != nil {
					return err
				}
				d, err := ref.Int("data", 0)
				if err != nil {
					return err
				}
				if err := ref.SetInt("data", 0, d+1); err != nil {
					return err
				}
				return cl.EndSession()
			}()
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 1; r < 3; r++ {
		readerWg.Add(1)
		go func(cl *Runtime) { // readers: clients 1 and 2
			defer readerWg.Done()
			last := int64(0)
			for {
				got, err := readVal(cl)
				if err != nil {
					errc <- err
					return
				}
				if got < last || got > 1+bumps {
					errc <- fmt.Errorf("stale or impossible read: got %d after %d (max %d)",
						got, last, 1+bumps)
					return
				}
				last = got
				select {
				case <-done:
					return
				default:
				}
			}
		}(clients[r])
	}
	writerWg.Wait()
	close(done)
	readerWg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got, err := readVal(clients[1]); err != nil || got != 1+bumps {
		t.Fatalf("final read = %d, %v; want %d", got, err, 1+bumps)
	}
	if err := server.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPointerAccessRacesInstallBatch: an install batch holds the data
// allocation table for its whole length, and a second application
// goroutine of the same session keeps reading and rewriting a resident
// pointer field meanwhile. Every access must resolve (never deadlock,
// never miss a row the batch is appending beside) and the walk's result
// must be unaffected. Run under -race.
func TestPointerAccessRacesInstallBatch(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) {
		// Small pages and closures: many short batches, so the second
		// goroutine meets the table lock in every state. Concurrent makes
		// two goroutines storing to one datum legal at the vmem level.
		o.PageSize = 256
		o.ClosureSize = 256
		o.Concurrent = true
	})
	const levels = 9
	err := callee.Register("sumWhilePoking", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		root, err := rt.Deref(args[0])
		if err != nil {
			return nil, err
		}
		left, err := root.Ptr("left", 0) // the root is resident from here on
		if err != nil {
			return nil, err
		}
		stop, running := make(chan struct{}), make(chan struct{})
		poked := make(chan error, 1)
		go func() {
			for n := 0; ; n++ {
				select {
				case <-stop:
					poked <- nil
					return
				default:
				}
				if n == 1 {
					close(running) // one full round done: the walk may start
				}
				got, err := root.Ptr("left", 0)
				if err == nil && got.Addr != left.Addr {
					err = fmt.Errorf("left pointer reads %#x, want %#x", uint32(got.Addr), uint32(left.Addr))
				}
				if err == nil {
					err = root.SetPtr("left", 0, left)
				}
				if err != nil {
					poked <- err
					return
				}
			}
		}()
		select {
		case <-running:
		case err := <-poked:
			return nil, err
		}
		total, err := sumTree(rt, args[0])
		close(stop)
		if perr := <-poked; err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(total)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, levels)
	if got := sessionCall(t, caller, 2, "sumWhilePoking", root)[0].Int64(); got != wantSum(levels) {
		t.Fatalf("sum = %d, want %d", got, wantSum(levels))
	}
	if got, err := sumTree(caller, root); err != nil || got != wantSum(levels) {
		t.Fatalf("tree at home after the session sums to %d, %v; want %d", got, err, wantSum(levels))
	}
}

// TestTableMemoRacesOfferAndInstall: the table's next-row memo is written
// by every long-pointer lookup, so every lookup must hold the table. In a
// warm session, one application goroutine keeps reading and rewriting a
// resident node (Ref.Ptr, SetInt), another keeps building the hashed
// offers of the stale pages, and the handler's walk installs batch after
// batch through warm faults meanwhile. Run under -race.
func TestTableMemoRacesOfferAndInstall(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) {
		o.PageSize = 256
		o.ClosureSize = 256
		o.Concurrent = true
	})
	const levels = 9
	err := callee.Register("raceWarm", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		var stalePages []uint32
		for _, e := range rt.table.Entries() {
			if pn := rt.space.PageOf(e.Addr); e.Stale && !slices.Contains(stalePages, pn) {
				stalePages = append(stalePages, pn)
			}
		}
		root, err := rt.Deref(args[0])
		if err != nil {
			return nil, err
		}
		d, err := root.Int("data", 0) // the root is resident from here on
		if err != nil {
			return nil, err
		}
		stop := make(chan struct{})
		errs := make(chan error, 2) // one result per goroutine; receiving both joins them
		loop := func(f func(n int) error) {
			for n := 0; ; n++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if err := f(n); err != nil {
					errs <- err
					return
				}
			}
		}
		go loop(func(int) error {
			if _, err := root.Ptr("left", 0); err != nil {
				return err
			}
			return root.SetInt("data", 0, d)
		})
		go loop(func(n int) error {
			rt.offer(&inflightFetch{fetchKey: fetchKey{pn: stalePages[n%len(stalePages)], origin: 1}, stale: true})
			return nil
		})
		total, err := sumTree(rt, args[0])
		close(stop)
		for range 2 {
			if e := <-errs; err == nil {
				err = e
			}
		}
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(total)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	registerSumProc(t, callee)
	root := buildTree(t, caller, levels)
	sessionCall(t, caller, 2, "sumTree", root)
	if got := sessionCall(t, caller, 2, "raceWarm", root)[0].Int64(); got != wantSum(levels) {
		t.Fatalf("warm sum = %d, want %d", got, wantSum(levels))
	}
	if st := callee.Stats(); st.CohRevalidateHits == 0 {
		t.Fatal("the second session revalidated nothing")
	}
}

// TestTraceEventCoverage drives one workload per rare protocol path so
// that every registered trace event kind fires at least once, then
// iterates EventKinds(): a newly added event cannot ship without a test
// that emits it (the history checker depends on trace fidelity).
func TestTraceEventCoverage(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	rec := &RecordingTracer{}
	mk := func(id uint32, mut func(o *Options)) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg}
		if mut != nil {
			mut(&o)
		}
		rt, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rt.SetTracer(rec)
		return rt
	}
	origin1 := mk(1, nil)
	// clientA exercises the warm-cache revalidation path.
	clientA := mk(2, func(o *Options) { o.PageSize = 256; o.ClosureSize = 64 })
	// clientB exercises speculative prefetch.
	clientB := mk(3, func(o *Options) {
		o.Prefetch = true
		o.PageSize = 256
		o.ClosureSize = 64
	})
	registerSumProc(t, origin1)

	t1 := buildTree(t, origin1, 5)
	t1lps := treeNodeLPs(t, origin1, t1)

	walk := func(rt *Runtime, lp wire.LongPtr) int64 {
		t.Helper()
		v, err := rt.ImportPtr(lp)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sumTree(rt, v)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	begin := func(rt *Runtime) {
		t.Helper()
		if err := rt.BeginSession(); err != nil {
			t.Fatal(err)
		}
	}
	end := func(rt *Runtime) {
		t.Helper()
		if err := rt.EndSession(); err != nil {
			t.Fatal(err)
		}
	}

	// clientA session 1: a Call plus a full walk of origin1's tree.
	// Call/Fault/Fetch/Install events.
	begin(clientA)
	rv, err := clientA.ImportPtr(t1lps[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := clientA.Call(1, "sumTree", []Value{rv})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Int64(); got != wantSum(5) {
		t.Fatalf("remote sum = %d, want %d", got, wantSum(5))
	}
	if got := walk(clientA, t1lps[0]); got != wantSum(5) {
		t.Fatalf("walked sum = %d, want %d", got, wantSum(5))
	}
	end(clientA)

	// clientA session 2: revalidate the warm root (hit — nothing changed),
	// then dirty it so EndSession write-backs and invalidates.
	begin(clientA)
	av, err := clientA.ImportPtr(t1lps[0])
	if err != nil {
		t.Fatal(err)
	}
	aref, err := clientA.Deref(av)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := aref.Int("data", 0); err != nil || got != 1 {
		t.Fatalf("root read = %d, %v; want 1", got, err)
	}
	if err := aref.SetInt("data", 0, 1001); err != nil {
		t.Fatal(err)
	}
	end(clientA)

	// origin1 mutates two interior nodes locally: warm-validate misses for
	// clientA next session.
	for _, lp := range []wire.LongPtr{t1lps[1], t1lps[2]} {
		ov, err := origin1.ImportPtr(lp)
		if err != nil {
			t.Fatal(err)
		}
		oref, err := origin1.Deref(ov)
		if err != nil {
			t.Fatal(err)
		}
		d, err := oref.Int("data", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := oref.SetInt("data", 0, d+500); err != nil {
			t.Fatal(err)
		}
	}

	// clientA session 3: re-walk — the mutated nodes miss revalidation.
	begin(clientA)
	if got, want := walk(clientA, t1lps[0]), wantSum(5)+1000+1000; got != want {
		t.Fatalf("post-mutation sum = %d, want %d", got, want)
	}
	end(clientA)

	// clientB: a full walk over a slow link, so its demand faults catch up
	// with speculative fetches still in flight and join them: prefetch-hit.
	net.SetLinkDelay(2 * time.Millisecond)
	begin(clientB)
	if got, want := walk(clientB, t1lps[0]), wantSum(5)+1000+1000; got != want {
		t.Fatalf("clientB walk sum = %d, want %d", got, want)
	}
	end(clientB)
	net.SetLinkDelay(0)

	// origin3 streams: its tiny chunk threshold splits the tree-walk
	// closure replies into chunk sequences (chunk-sent on the origin,
	// chunk-recv/chunk-install on the client).
	origin3 := mk(5, func(o *Options) { o.StreamChunkBytes = 128 })
	t3 := buildTree(t, origin3, 5)
	t3lps := treeNodeLPs(t, origin3, t3)
	clientC := mk(6, nil)
	begin(clientC)
	if got, want := walk(clientC, t3lps[0]), wantSum(5); got != want {
		t.Fatalf("origin3 walk sum = %d, want %d", got, want)
	}
	end(clientC)

	// A raw node sends origin1 a sealed-then-corrupted frame; the reply
	// arrives only after the origin traced the rejection.
	raw, err := net.Attach(9)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	m := wire.Message{Kind: wire.KindFetch, To: 1, Session: 42, Seq: 7}
	m.Seal()
	m.Session++ // covered by the checksum; From is stamped post-seal and is not
	if err := raw.Send(m); err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Fatal("corrupted frame was not rejected")
	}

	// Rebind-evict finale: origin1 frees a node clientA still holds a
	// warm (non-resident) row for; the first-fit allocator hands the same
	// address to clientA's next batched remote alloc, and the rebind must
	// evict the stale row.
	freedLP := t1lps[len(t1lps)-1]
	fv, err := origin1.ImportPtr(freedLP)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin1.ExtendedFree(fv); err != nil {
		t.Fatal(err)
	}
	begin(clientA)
	if _, err := clientA.ExtendedMalloc(1, nodeType); err != nil {
		t.Fatal(err)
	}
	end(clientA)

	// Recovery finale: a flaky link exercises the retry path, a swallowed
	// Return forces an at-most-once replay, and an origin restart trips
	// the incarnation fence.
	var fetchFails, returnSwallowed atomic.Int32
	fnode, err := net.Attach(10)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyNode{
		Node: fnode,
		sendHook: func(m wire.Message) error {
			if m.Kind == wire.KindFetch && fetchFails.Add(1) <= 3 {
				return errors.New("flaky: link down")
			}
			return nil
		},
		recvHook: func(m wire.Message) (bool, time.Duration) {
			if m.Kind == wire.KindReturn && returnSwallowed.CompareAndSwap(0, 1) {
				return false, 0
			}
			return true, 0
		},
	}
	clientD, err := New(Options{
		ID:          10,
		Node:        flaky,
		Registry:    reg,
		CallTimeout: 200 * time.Millisecond,
		RetryBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = clientD.Close() })
	clientD.SetTracer(rec)
	mkOrigin4 := func(inc uint32) *Runtime {
		node, err := net.Attach(11)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: 11, Node: node, Registry: reg, Incarnation: inc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rt.SetTracer(rec)
		return rt
	}
	origin4 := mkOrigin4(1)
	var bumps atomic.Int32
	if err := origin4.Register("bump", func(*Ctx, []Value) ([]Value, error) {
		return []Value{Int64Value(int64(bumps.Add(1)))}, nil
	}); err != nil {
		t.Fatal(err)
	}
	t4 := buildTree(t, origin4, 3)
	t4lps := treeNodeLPs(t, origin4, t4)
	// The first fetch exchange fails three sends in a row — retry — then
	// succeeds. The call's swallowed Return forces a deadline retry the
	// origin answers from its reply cache: replayed-reply.
	begin(clientD)
	if got, want := walk(clientD, t4lps[0]), wantSum(3); got != want {
		t.Fatalf("clientD walk sum = %d, want %d", got, want)
	}
	dres, err := clientD.Call(11, "bump", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dres[0].Int64(); got != 1 || bumps.Load() != 1 {
		t.Fatalf("bump result = %d (ran %d times), want 1 run", got, bumps.Load())
	}
	end(clientD)
	// origin4 restarts with a fresh heap: the next exchange's reply
	// carries incarnation 2 and the fence trips.
	_ = origin4.Close()
	_ = mkOrigin4(2)
	begin(clientD)
	dv, err := clientD.ImportPtr(t4lps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sumTree(clientD, dv); !errors.Is(err, ErrOriginRestarted) {
		t.Fatalf("walk after origin restart: err = %v, want ErrOriginRestarted", err)
	}

	for _, k := range EventKinds() {
		if rec.Count(k) == 0 {
			t.Errorf("event kind %v was never emitted by the coverage workload", k)
		}
	}
}
