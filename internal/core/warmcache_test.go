package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// warmPair builds a caller/callee pair with invariant checking on, so
// every warm-cache exchange is also validated by the checker.
func warmPair(t *testing.T, mut func(id uint32, o *Options)) (*Runtime, *Runtime) {
	t.Helper()
	return pair(t, func(id uint32, o *Options) {
		o.CheckInvariants = true
		if mut != nil {
			mut(id, o)
		}
	})
}

func TestWarmSecondSessionAllTokens(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4) // 15 nodes

	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(4) {
		t.Fatalf("first session sum = %d, want %d", got, wantSum(4))
	}
	cold := callee.Stats()
	if cold.CohRevalidateHits != 0 || cold.CohRevalidateMisses != 0 {
		t.Fatalf("revalidation counters nonzero after first session: %+v", cold)
	}
	if cold.ItemsInstalled != 15 {
		t.Fatalf("first session installed %d items, want 15", cold.ItemsInstalled)
	}

	// Nothing changed: the second session must promote every cached node
	// with zero-byte tokens and install nothing new.
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(4) {
		t.Fatalf("second session sum = %d, want %d", got, wantSum(4))
	}
	warm := callee.Stats()
	if warm.CohRevalidateHits != 15 {
		t.Errorf("revalidate hits = %d, want 15", warm.CohRevalidateHits)
	}
	if warm.CohRevalidateMisses != 0 {
		t.Errorf("revalidate misses = %d, want 0", warm.CohRevalidateMisses)
	}
	if warm.CohRevalidateBytes != 0 {
		t.Errorf("revalidate bytes = %d, want 0 (tokens only)", warm.CohRevalidateBytes)
	}
	if warm.ItemsInstalled != cold.ItemsInstalled {
		t.Errorf("second session re-installed items: %d -> %d (want no full refetches of unchanged data)",
			cold.ItemsInstalled, warm.ItemsInstalled)
	}
}

func TestWarmMutationShipsOnlyChangedData(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "sumTree", root)

	// Mutate one node in the owner's heap between sessions.
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 1000); err != nil {
		t.Fatal(err)
	}

	want := wantSum(4) - 1 + 1000
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != want {
		t.Fatalf("post-mutation sum = %d, want %d", got, want)
	}
	s := callee.Stats()
	if s.CohRevalidateMisses != 1 {
		t.Errorf("revalidate misses = %d, want 1 (only the mutated node)", s.CohRevalidateMisses)
	}
	if s.CohRevalidateHits != 14 {
		t.Errorf("revalidate hits = %d, want 14", s.CohRevalidateHits)
	}
	if s.CohRevalidateBytes == 0 {
		t.Error("mutated node shipped zero bytes")
	}
	// The changed node should travel as a range delta, far below its
	// 40-byte canonical encoding.
	if s.CohRevalidateBytes >= 40 {
		t.Errorf("mutated node shipped %d bytes; expected a delta smaller than the full body", s.CohRevalidateBytes)
	}
}

func TestWarmRepeatedSessionsStayCoherent(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	base := wantSum(4) - 1
	for i := int64(0); i < 5; i++ {
		if err := ref.SetInt("data", 0, 100+i); err != nil {
			t.Fatal(err)
		}
		want := base + 100 + i
		if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != want {
			t.Fatalf("session %d sum = %d, want %d", i, got, want)
		}
	}
	s := callee.Stats()
	// Sessions 2..5: each revalidates 15 nodes, 14 unchanged + 1 changed.
	if s.CohRevalidateHits != 4*14 {
		t.Errorf("revalidate hits = %d, want %d", s.CohRevalidateHits, 4*14)
	}
	if s.CohRevalidateMisses != 4 {
		t.Errorf("revalidate misses = %d, want 4", s.CohRevalidateMisses)
	}
}

func TestWarmCalleeModificationTokensAfterWriteBack(t *testing.T) {
	// The callee modifies cached data; the write-back makes the origin's
	// heap equal to the callee's cache, so the next session must still be
	// all tokens — the hash check sees through the round trip.
	caller, callee := warmPair(t, nil)
	err := callee.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, v+1); err != nil {
			return nil, err
		}
		return []Value{Int64Value(v + 1)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	if got := sessionCall(t, caller, 2, "bump", root)[0].Int64(); got != 2 {
		t.Fatalf("first bump = %d, want 2", got)
	}
	if got := sessionCall(t, caller, 2, "bump", root)[0].Int64(); got != 3 {
		t.Fatalf("second bump = %d, want 3", got)
	}
	s := callee.Stats()
	if s.CohRevalidateHits != 1 || s.CohRevalidateMisses != 0 {
		t.Errorf("callee-modified datum revalidated as hits=%d misses=%d, want 1/0",
			s.CohRevalidateHits, s.CohRevalidateMisses)
	}
}

func TestWarmAbortClearsBaselines(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	sessionCall(t, caller, 2, "sumTree", root)

	// An abort must drop the warm state: the next session pays full
	// fetches again, and still computes the right answer.
	callee.AbortSession()
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(3) {
		t.Fatalf("post-abort sum = %d, want %d", got, wantSum(3))
	}
	if s := callee.Stats(); s.CohRevalidateHits != 0 || s.CohRevalidateMisses != 0 {
		t.Errorf("aborted cache still revalidated: hits=%d misses=%d",
			s.CohRevalidateHits, s.CohRevalidateMisses)
	}
}

func TestWarmDisabledNeverValidates(t *testing.T) {
	caller, callee := warmPair(t, func(id uint32, o *Options) { o.DisableWarmCache = true })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "sumTree", root)
	sessionCall(t, caller, 2, "sumTree", root)
	s := callee.Stats()
	if s.CohRevalidateMsgs != 0 || s.CohRevalidateHits != 0 {
		t.Errorf("warm-disabled runtime revalidated: %+v", s)
	}
	if s.ItemsInstalled != 30 {
		t.Errorf("items installed = %d, want 30 (two full sessions)", s.ItemsInstalled)
	}
}

func TestWarmFreedDatumDegradesCleanly(t *testing.T) {
	// Free a cached-and-demoted datum at its origin between sessions; the
	// revalidation must degrade (server-side encode error) without
	// poisoning the session.
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 1) // a single node
	sessionCall(t, caller, 2, "sumTree", root)

	if err := caller.ExtendedFree(root); err != nil {
		t.Fatal(err)
	}
	// The callee's stale row now points at freed origin memory. A fresh
	// tree reuses the heap; the old row's revalidation (if its page is
	// faulted) must not serve stale bytes. Build a new tree and sum it.
	root2 := buildTree(t, caller, 2)
	if got := sessionCall(t, caller, 2, "sumTree", root2)[0].Int64(); got != wantSum(2) {
		t.Fatalf("post-free sum = %d, want %d", got, wantSum(2))
	}
}

func TestValidateWireRoundTrip(t *testing.T) {
	// The request/reply payloads used by the warm path survive a codec
	// round trip with hash fidelity (belt over the fuzz targets).
	p := wire.ValidatePayload{Tuples: []wire.ValidateTuple{
		{LP: wire.LongPtr{Space: 1, Addr: 0x10000, Type: 1}, Sum: wire.Sum64([]byte("abc"))},
	}}
	q, err := wire.DecodeValidatePayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tuples) != 1 || q.Tuples[0] != p.Tuples[0] {
		t.Fatalf("round trip changed tuples: %+v vs %+v", p.Tuples, q.Tuples)
	}
	r := wire.ValidateReplyPayload{Items: []wire.ValidateItem{
		{LP: p.Tuples[0].LP, Form: wire.ValidateCurrent},
		{LP: wire.LongPtr{Space: 1, Addr: 0x10040, Type: 1}, Form: wire.ValidateFull, Bytes: []byte{1, 2, 3, 4}},
	}}
	rr, err := wire.DecodeValidateReplyPayload(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Items) != 2 || rr.Items[0].Form != wire.ValidateCurrent || len(rr.Items[1].Bytes) != 4 {
		t.Fatalf("reply round trip changed items: %+v", rr.Items)
	}
}

// --- the lazy baseline: nothing is recorded at demotion, the offer is
// derived from the demoted page when the Validate is built ---

// validateTap records what crosses one runtime's node on the revalidation
// path: every tuple it offers and the form of every answer it receives.
type validateTap struct {
	mu     sync.Mutex
	tuples []wire.ValidateTuple
	forms  map[uint32]int
}

// wrap decorates o.Node. Set before the runtime starts.
func (vt *validateTap) wrap(t testing.TB, o *Options) {
	vt.forms = make(map[uint32]int)
	o.Node = &flakyNode{
		Node: o.Node,
		sendHook: func(m wire.Message) error {
			if m.Kind != wire.KindValidate {
				return nil
			}
			p, err := wire.DecodeValidatePayload(m.Payload)
			if err != nil {
				t.Errorf("undecodable Validate on the wire: %v", err)
				return nil
			}
			vt.mu.Lock()
			vt.tuples = append(vt.tuples, p.Tuples...)
			vt.mu.Unlock()
			return nil
		},
		recvHook: func(m wire.Message) (bool, time.Duration) {
			if m.Kind == wire.KindValidateReply && m.Err == "" {
				if p, err := wire.DecodeValidateReplyPayload(m.Payload); err == nil {
					vt.mu.Lock()
					for _, it := range p.Items {
						vt.forms[it.Form]++
					}
					vt.mu.Unlock()
				}
			}
			return true, 0
		},
	}
}

func (vt *validateTap) takeTuples() []wire.ValidateTuple {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	out := vt.tuples
	vt.tuples = nil
	return out
}

// staleSums encodes every stale row of rt from its page — the snapshot a
// demotion used to record — and returns the content hash per datum.
func staleSums(t testing.TB, rt *Runtime) map[wire.LongPtr]uint64 {
	t.Helper()
	out := make(map[wire.LongPtr]uint64)
	for _, e := range rt.table.Entries() {
		if !e.Stale {
			continue
		}
		enc, err := rt.encodeStale(e)
		if err != nil {
			t.Fatalf("stale datum %v does not encode right after demotion: %v", e.LP, err)
		}
		out[e.LP] = wire.Sum64(enc)
	}
	return out
}

// graphModel is the test's expectation of a random pointer graph in the
// caller's heap: node i's left pointer is node i+1 (so everything is
// reachable from node 0), its right pointer any node or null.
type graphModel struct {
	nodes []Value
	data  []int64
}

func buildGraph(t testing.TB, rt *Runtime, rng *rand.Rand, n int) *graphModel {
	t.Helper()
	g := &graphModel{nodes: make([]Value, n), data: make([]int64, n)}
	for i := range g.nodes {
		v, err := rt.NewObject(nodeType)
		if err != nil {
			t.Fatal(err)
		}
		g.nodes[i] = v
		g.data[i] = rng.Int63n(1000)
	}
	for i, v := range g.nodes {
		ref, err := rt.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, g.data[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			if err := ref.SetPtr("left", 0, g.nodes[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		g.setRight(t, rt, rng, i)
	}
	return g
}

func (g *graphModel) setRight(t testing.TB, rt *Runtime, rng *rand.Rand, i int) {
	t.Helper()
	ref, err := rt.Deref(g.nodes[i])
	if err != nil {
		t.Fatal(err)
	}
	right := NullPtr(nodeType)
	if k := rng.Intn(len(g.nodes) + 1); k < len(g.nodes) {
		right = g.nodes[k]
	}
	if err := ref.SetPtr("right", 0, right); err != nil {
		t.Fatal(err)
	}
}

func (g *graphModel) sum() int64 {
	var s int64
	for _, d := range g.data {
		s += d
	}
	return s
}

// registerGraphWalk registers "walk": visit every node reachable from
// args[0], sum the data and — when args[1] is set — triple every odd
// value in place (so the session writes a data-dependent subset).
func registerGraphWalk(t testing.TB, callee *Runtime) {
	t.Helper()
	err := callee.Register("walk", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		write := args[1].Bool()
		seen := make(map[wire.LongPtr]bool)
		queue := []Value{args[0]}
		var sum int64
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if v.IsNullPtr() || seen[v.LP] {
				continue
			}
			seen[v.LP] = true
			ref, err := rt.Deref(v)
			if err != nil {
				return nil, err
			}
			d, err := ref.Int("data", 0)
			if err != nil {
				return nil, err
			}
			sum += d
			if write && d%2 == 1 {
				if err := ref.SetInt("data", 0, d*3); err != nil {
					return nil, err
				}
			}
			for _, f := range []string{"left", "right"} {
				p, err := ref.Ptr(f, 0)
				if err != nil {
					return nil, err
				}
				queue = append(queue, p)
			}
		}
		return []Value{Int64Value(sum)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmOfferedSumsMatchDemotionSnapshot is the wire-equivalence
// property of the derived baseline: over random pointer graphs, with
// sessions that write and a caller that rewrites data and pointers in
// between, the hash offered in every tuple equals the hash of the
// encoding the datum's page held at demotion — exactly what the stored
// baseline put on the wire.
func TestWarmOfferedSumsMatchDemotionSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tap validateTap
		caller, callee := warmPair(t, func(id uint32, o *Options) {
			o.PageSize = 256 << uint(seed%3) // several pages, so ride-alongs happen
			if id == 2 {
				tap.wrap(t, o)
			}
		})
		registerGraphWalk(t, callee)
		g := buildGraph(t, caller, rng, 20+rng.Intn(60))
		offered := 0
		var snap map[wire.LongPtr]uint64 // per-datum hash at the last demotion
		for sess := 0; sess < 5; sess++ {
			write := sess%2 == 0
			got := sessionCall(t, caller, 2, "walk", g.nodes[0], BoolValue(write))[0].Int64()
			if want := g.sum(); got != want {
				t.Fatalf("seed %d session %d: sum = %d, want %d", seed, sess, got, want)
			}
			if write {
				for i, d := range g.data {
					if d%2 == 1 {
						g.data[i] = d * 3
					}
				}
			}
			// The session's offers were built from pages demoted by the
			// previous teardown.
			if sess > 0 {
				for _, tu := range tap.takeTuples() {
					offered++
					want, ok := snap[tu.LP]
					if !ok {
						t.Fatalf("seed %d session %d: offered %v, which was not stale after the last demotion", seed, sess, tu.LP)
					}
					if tu.Sum != want {
						t.Fatalf("seed %d session %d: %v offered sum %#x, demotion snapshot hashes to %#x", seed, sess, tu.LP, tu.Sum, want)
					}
				}
			}
			snap = staleSums(t, callee)
			// Rewrite a seeded share of the data and the odd right pointer
			// at home before the next session.
			for i := range g.nodes {
				if rng.Intn(5) != 0 {
					continue
				}
				ref, err := caller.Deref(g.nodes[i])
				if err != nil {
					t.Fatal(err)
				}
				g.data[i] = rng.Int63n(1000)
				if err := ref.SetInt("data", 0, g.data[i]); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					g.setRight(t, caller, rng, i)
				}
			}
		}
		if offered == 0 {
			t.Fatalf("seed %d: no tuple was ever offered", seed)
		}
	}
}

// TestValidateMissShipsFullBody: a VALIDATE answer is "current" or the
// full body, whatever the origin served this peer before. The origin has
// fetched the node to the callee, taken its write-back and answered a
// token for it — everything a remembered base could come from — and the
// rewrite still travels whole.
func TestValidateMissShipsFullBody(t *testing.T) {
	var tap validateTap
	caller, callee := warmPair(t, func(id uint32, o *Options) {
		if id == 2 {
			tap.wrap(t, o)
		}
	})
	registerGraphWalk(t, callee)
	root := buildTree(t, caller, 1) // one node, data 1
	// Session 1 triples the node on the callee (write-back makes home 3);
	// session 2 revalidates it with a token.
	sessionCall(t, caller, 2, "walk", root, BoolValue(true))
	sessionCall(t, caller, 2, "walk", root, BoolValue(false))
	if tap.forms[wire.ValidateCurrent] != 1 {
		t.Fatalf("session 2 answer forms = %v, want one token", tap.forms)
	}
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := sessionCall(t, caller, 2, "walk", root, BoolValue(false))[0].Int64(); got != 1_000_000 {
		t.Fatalf("session 3 read %d, want 1000000", got)
	}
	if tap.forms[wire.ValidateFull] != 1 || len(tap.forms) != 2 {
		t.Fatalf("answer forms = %v, want the rewrite to travel as one full body", tap.forms)
	}
	home := encodeLocalObject(t, caller, root)
	if got := callee.Stats().CohRevalidateBytes; got != uint64(len(home)) {
		t.Errorf("CohRevalidateBytes = %d, want the node's canonical size %d", got, len(home))
	}
	// The installed page must now encode to exactly the origin's value.
	addr, ok := callee.table.LookupLP(root.LP)
	if !ok {
		t.Fatal("callee lost the row")
	}
	e, _ := callee.table.LookupAddr(addr)
	mine, err := callee.encodeStale(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine, home) {
		t.Fatalf("callee page encodes to %x, origin holds %x", mine, home)
	}
}

// TestWarmFreedPointeeDegradesToRefetch: the client frees a cached datum
// that another stale datum still points to — directly between sessions,
// or in a session that never touches the pointing datum and so tears
// down (idle invariants on) with it still stale. Either way that datum's
// page no longer encodes (its pointer has no table row): its offer
// degrades to a plain refetch and no error surfaces.
func TestWarmFreedPointeeDegradesToRefetch(t *testing.T) {
	for _, inSession := range []bool{false, true} {
		caller, callee := warmPair(t, nil)
		registerSumProc(t, callee)
		err := callee.Register("free", func(ctx *Ctx, args []Value) ([]Value, error) {
			return nil, ctx.Runtime().ExtendedFree(args[0])
		})
		if err != nil {
			t.Fatal(err)
		}
		root := buildTree(t, caller, 2) // root(1) -> left(2), right(3)
		if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 6 {
			t.Fatalf("first sum = %d, want 6", got)
		}
		// Home unlinks the left child; the callee releases it through its
		// cached pointer (a remote free, flushed on the next crossing).
		ref, err := caller.Deref(root)
		if err != nil {
			t.Fatal(err)
		}
		left, err := ref.Ptr("left", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("left", 0, NullPtr(nodeType)); err != nil {
			t.Fatal(err)
		}
		if inSession {
			sessionCall(t, caller, 2, "free", left)
		} else {
			addr, ok := callee.table.LookupLP(left.LP)
			if !ok {
				t.Fatal("callee holds no row for the left child")
			}
			if err := callee.ExtendedFree(Value{Kind: types.Ptr, Addr: addr, LP: left.LP, Elem: nodeType}); err != nil {
				t.Fatal(err)
			}
		}
		rootAddr, ok := callee.table.LookupLP(root.LP)
		if !ok {
			t.Fatalf("inSession=%v: the callee lost its warm rows", inSession)
		}
		rootRow, _ := callee.table.LookupAddr(rootAddr)
		if _, err := callee.encodeStale(rootRow); !rootRow.Stale || !errors.Is(err, swizzle.ErrNotSwizzled) {
			t.Fatalf("inSession=%v: root stale=%v encodes with err = %v, want a stale datum its dangling pointer makes unencodable",
				inSession, rootRow.Stale, err)
		}
		before := callee.Stats()
		if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 4 {
			t.Fatalf("inSession=%v: post-free sum = %d, want 4 (root + right)", inSession, got)
		}
		after := callee.Stats()
		if after.ItemsInstalled == before.ItemsInstalled {
			t.Errorf("inSession=%v: the unencodable root was not refetched", inSession)
		}
		if hits := after.CohRevalidateHits - before.CohRevalidateHits; hits != 1 {
			t.Errorf("inSession=%v: revalidate hits = %d, want 1 (the right child still revalidates)", inSession, hits)
		}
	}
}

// TestWarmPersistentPairHeapSettles: a pair that stays open does not grow
// with the number of sessions it has run. With stored baselines every
// session's arena stayed pinned by the few views that changed in it
// (about 34 bytes per cached datum per session).
func TestWarmPersistentPairHeapSettles(t *testing.T) {
	if testing.Short() {
		t.Skip("60 sessions over a 4095-node tree")
	}
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 12)
	lps := treeNodeLPs(t, caller, root)
	rng := rand.New(rand.NewSource(7))
	settled := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at10 uint64
	for sess := 1; sess <= 60; sess++ {
		sessionCall(t, caller, 2, "sumTree", root)
		if sess == 10 {
			at10 = settled()
		}
		for _, lp := range lps {
			if rng.Intn(20) != 0 {
				continue
			}
			v, err := caller.ImportPtr(lp)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := caller.Deref(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.SetInt("data", 0, rng.Int63()); err != nil {
				t.Fatal(err)
			}
		}
	}
	at60 := settled()
	if s := callee.Stats(); s.CohRevalidateHits == 0 || s.CohRevalidateMisses == 0 {
		t.Fatalf("the pair did not run warm: %+v", s)
	}
	if float64(at60) > 1.10*float64(at10) {
		t.Errorf("settled heap grew from %d B after session 10 to %d B after session 60 (more than 10%%)", at10, at60)
	}
}

// TestOriginRetainsNothingPerPeer: an origin's heap does not grow with the
// number of distinct clients it has served. Each client is a fresh runtime
// that reads the whole tree cold and closes; what the origin shipped to it
// is not remembered. (What does stay per peer is the duplicate-request
// window, a fixed 9 KB or so: half a percent of this origin's heap a client.)
func TestOriginRetainsNothingPerPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("8 cold clients over the 32767-node tree")
	}
	net, origin, _ := pipelineNet(t, 0, nil)
	root := buildTree(t, origin, 15)
	lp := treeNodeLPs(t, origin, root)[0]
	settled := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at2 uint64
	for k := 1; k <= 8; k++ {
		func() {
			node, err := net.Attach(uint32(k + 1))
			if err != nil {
				t.Fatal(err)
			}
			client, err := New(Options{ID: uint32(k + 1), Node: node, Registry: origin.Registry()})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if err := client.BeginSession(); err != nil {
				t.Fatal(err)
			}
			if got := importWalk(t, client, lp); got != wantSum(15) {
				t.Fatalf("client %d sum = %d, want %d", k, got, wantSum(15))
			}
			if err := client.EndSession(); err != nil {
				t.Fatal(err)
			}
		}()
		if k == 2 {
			at2 = settled()
		}
	}
	at8 := settled()
	if float64(at8) > 1.10*float64(at2) {
		t.Errorf("settled heap grew from %d B after client 2 to %d B after client 8 (more than 10%%)", at2, at8)
	}
	t.Logf("settled heap: %d B after client 2, %d B after client 8", at2, at8)
}

// TestFenceTripStripsThatOriginOnly: a tripped incarnation fence drops
// the warm state held for the restarted origin and nobody else's.
func TestFenceTripStripsThatOriginOnly(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	sessionCall(t, caller, 2, "sumTree", root)
	// A second origin's warm datum, planted directly: resident, then
	// demoted with the rest.
	other := wire.LongPtr{Space: 3, Addr: 0x4000, Type: nodeType}
	addr, _, err := callee.table.Swizzle(other)
	if err != nil {
		t.Fatal(err)
	}
	callee.table.MarkResident(addr)
	callee.table.DemoteAll()

	// Session 1's replies carried incarnation 0; any other value is a restart.
	if err := callee.fenceCheck(1, 6); !errors.Is(err, ErrOriginRestarted) {
		t.Fatalf("changed incarnation: err = %v, want ErrOriginRestarted", err)
	}
	from1 := 0
	for _, e := range callee.table.Entries() {
		switch e.LP.Space {
		case 1:
			from1++
			if e.Stale {
				t.Errorf("%v is still stale after its origin restarted", e.LP)
			}
		case 3:
			if !e.Stale {
				t.Errorf("%v lost its stale mark to another origin's restart", e.LP)
			}
		}
	}
	if from1 != 7 {
		t.Fatalf("callee holds %d rows from space 1, want 7", from1)
	}
}

// --- teardown and validate-serve micro-benchmarks (CI allocation gates) ---

// BenchmarkEndSessionDemote measures the local half of a warm teardown
// over the paper's tree: 32 767 resident rows demoted in place.
func BenchmarkEndSessionDemote(b *testing.B) {
	_, callee := pair(b, nil)
	const rows = 32767
	addrs := make([]vmem.VAddr, rows)
	for i := range addrs {
		a, _, err := callee.table.Swizzle(wire.LongPtr{Space: 1, Addr: vmem.VAddr(0x10000 + 16*i), Type: nodeType})
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, a := range addrs {
			callee.table.MarkResident(a)
		}
		b.StartTimer()
		callee.demoteWarm()
	}
	b.StopTimer()
	if n := callee.table.Len(); n != rows {
		b.Fatalf("table holds %d rows after demotion, want %d (fell back to invalidation?)", n, rows)
	}
}

// BenchmarkServeValidateBatch measures the origin answering one 512-tuple
// VALIDATE whose every answer is a token.
func BenchmarkServeValidateBatch(b *testing.B) {
	origin, _ := pair(b, func(id uint32, o *Options) {
		if id == 1 {
			// Replies vanish at the node: nobody is waiting for them.
			o.Node = &flakyNode{Node: o.Node, sendHook: func(wire.Message) error { return errSwallowSend }}
		}
	})
	root := buildTree(b, origin, 9) // 511 nodes
	extra := buildTree(b, origin, 1)
	lps := append(treeNodeLPs(b, origin, root), extra.LP)
	p := wire.ValidatePayload{Tuples: make([]wire.ValidateTuple, len(lps))}
	for i, lp := range lps {
		v, err := origin.ImportPtr(lp)
		if err != nil {
			b.Fatal(err)
		}
		p.Tuples[i] = wire.ValidateTuple{LP: lp, Sum: wire.Sum64(encodeLocalObject(b, origin, v))}
	}
	m := wire.Message{Kind: wire.KindValidate, Session: 1, Seq: 1, From: 2, To: 1, Payload: p.Encode()}
	origin.serveValidate(m) // builds the peer's served index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin.serveValidate(m)
	}
}
