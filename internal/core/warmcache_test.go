package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/transport"
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

// --- the lazy baseline: nothing is recorded at demotion, the offer is
// derived from the demoted page when the Validate is built ---

// validateTap records what crosses one runtime's node on the revalidation
// path: every (want, sum) its hashed FETCHes offer, and every answer the
// replies to them carry — ItemCurrent tokens or full bodies.
type validateTap struct {
	mu      sync.Mutex
	seqs    map[uint64]bool // every hashed FETCH attempt sent
	offers  []offer
	answers []wire.DataItem // bodies copied out of the frame
}

// offer is one hashed want as it went out on the wire.
type offer struct {
	lp  wire.LongPtr
	sum uint64
}

// wrap decorates o.Node. Set before the runtime starts.
func (vt *validateTap) wrap(t testing.TB, o *Options) {
	vt.seqs = make(map[uint64]bool)
	o.Node = &flakyNode{
		Node: o.Node,
		sendHook: func(m wire.Message) error {
			if m.Kind != wire.KindFetch {
				return nil
			}
			p, err := wire.DecodeFetchPayload(m.Payload)
			if err != nil {
				t.Errorf("undecodable FETCH on the wire: %v", err)
				return nil
			}
			vt.mu.Lock()
			defer vt.mu.Unlock()
			if len(p.Sums) > 0 {
				vt.seqs[m.Seq] = true
				for i, lp := range p.Wants {
					vt.offers = append(vt.offers, offer{lp: lp, sum: p.Sums[i]})
				}
			}
			return nil
		},
		recvHook: func(m wire.Message) (bool, time.Duration) {
			if m.Kind != wire.KindFetchReply && m.Kind != wire.KindFetchChunk {
				return true, 0
			}
			vt.mu.Lock()
			defer vt.mu.Unlock()
			if _, items, err := readFetchFrame(m); err == nil && vt.seqs[m.Seq] {
				for _, it := range readItems(items) {
					it.Bytes = bytes.Clone(it.Bytes)
					vt.answers = append(vt.answers, it)
				}
			}
			return true, 0
		},
	}
}

// take returns and forgets what the tap recorded.
func (vt *validateTap) take() (offers []offer, answers []wire.DataItem) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	offers, answers = vt.offers, vt.answers
	vt.offers, vt.answers = nil, nil
	return offers, answers
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
				offers, _ := tap.take()
				for _, o := range offers {
					offered++
					want, ok := snap[o.lp]
					if !ok {
						t.Fatalf("seed %d session %d: offered %v, which was not stale after the last demotion", seed, sess, o.lp)
					}
					if o.sum != want {
						t.Fatalf("seed %d session %d: %v offered sum %#x, demotion snapshot hashes to %#x", seed, sess, o.lp, o.sum, want)
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

// TestWarmRecordedSumIsTheOfferedSum: from the second warm session on, a
// hashed FETCH offers each stale row's memo instead of encoding its page.
// The root's memo comes from the full body a miss installed (the origin
// rewrote it before the second warm session), the others' from the first
// warm offer. A raw write under the root's data field, behind the table's
// back, therefore still goes out under the pre-write memo — proof that no
// encode ran — and the idle oracle, which re-derives every memo from its
// page, names that row.
func TestWarmRecordedSumIsTheOfferedSum(t *testing.T) {
	var tap validateTap
	// No per-exchange checks: the write below breaks the invariant on
	// purpose, and the test calls the oracle itself.
	caller, callee := pair(t, func(id uint32, o *Options) {
		if id == 2 {
			tap.wrap(t, o)
		}
	})
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4) // 15 nodes
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	want := wantSum(4)
	for i := 0; i < 3; i++ { // cold, then two warm sessions
		if i == 2 {
			if err := ref.SetInt("data", 0, 99); err != nil {
				t.Fatal(err)
			}
			want += 99 - 1
		}
		if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != want {
			t.Fatalf("session %d sum = %d, want %d", i, got, want)
		}
	}
	if offers, _ := tap.take(); len(offers) != 2*15 {
		t.Fatalf("two warm sessions offered %d sums, want %d", len(offers), 2*15)
	}
	if err := callee.CheckIdleInvariants(); err != nil {
		t.Fatalf("idle invariants before the write: %v", err)
	}
	for _, e := range callee.table.Entries() {
		if !e.Stale || !e.HasMemo {
			t.Fatalf("after two warm sessions row %v is stale=%v with memo=%v, want a stale row with a memo", e.LP, e.Stale, e.HasMemo)
		}
	}
	addr, ok := callee.table.LookupLP(root.LP)
	if !ok {
		t.Fatal("callee holds no row for the root")
	}
	row, _ := callee.table.LookupAddr(addr)
	memo, _ := callee.table.OfferedMemo(addr)
	if body := wire.Sum64(encodeLocalObject(t, caller, root)); memo != body {
		t.Fatalf("root memo %#x, want %#x: the hash of the body the miss installed", memo, body)
	}

	rv, err := callee.res.Resolve(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rv.Desc.Fields, func(f types.Field) bool { return f.Name == "data" })
	fl := rv.Layout.Fields[i]
	if err := callee.space.WriteRaw(addr+vmem.VAddr(fl.Offset), bytes.Repeat([]byte{0x5A}, fl.ElemSize)); err != nil {
		t.Fatal(err)
	}
	after, err := callee.encodeStale(row)
	if err != nil || wire.Sum64(after) == memo {
		t.Fatalf("the raw write left the root encoding to its memo (%v)", err)
	}
	err = callee.CheckIdleInvariants()
	if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), fmt.Sprint(root.LP)) {
		t.Fatalf("idle invariants after a write behind the table = %v, want ErrInvariant naming %v", err, root.LP)
	}

	sessionCall(t, caller, 2, "sumTree", root)
	offers, _ := tap.take()
	k := slices.IndexFunc(offers, func(o offer) bool { return o.lp == root.LP })
	if k < 0 {
		t.Fatalf("the third warm session offered no sum for the root: %v", offers)
	}
	if offers[k].sum != memo {
		t.Fatalf("the root was offered under %#x, want its pre-write memo %#x (the page now encodes to %#x)",
			offers[k].sum, memo, wire.Sum64(after))
	}
}

// TestWarmFetchOverStaleRowDropsMemo: a cold FETCH's closure can carry a
// datum the callee holds stale, with a memo, and its body is decoded over
// the page without a hash. The install must drop the memo: the origin
// rewrote the datum, so the page no longer encodes to it, and the idle
// oracle at teardown would name the row.
func TestWarmFetchOverStaleRowDropsMemo(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3) // 7 nodes
	for i := 0; i < 3; i++ {
		sessionCall(t, caller, 2, "sumTree", root)
	}
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	left, err := ref.Ptr("left", 0) // data 2, subtree 2+3+4
	if err != nil {
		t.Fatal(err)
	}
	memoOf := func() (stale, has bool) {
		t.Helper()
		addr, ok := callee.table.LookupLP(left.LP)
		if !ok {
			t.Fatal("callee holds no row for the left child")
		}
		e, _ := callee.table.LookupAddr(addr)
		return e.Stale, e.HasMemo
	}
	if stale, has := memoOf(); !stale || !has {
		t.Fatalf("left child stale=%v memo=%v after two warm sessions, want a stale row with a memo", stale, has)
	}
	lref, err := caller.Deref(left)
	if err != nil {
		t.Fatal(err)
	}
	if err := lref.SetInt("data", 0, 200); err != nil {
		t.Fatal(err)
	}
	// A fresh node pointing at the left child: the callee faults on it
	// cold, and the closure brings the child along in full.
	top, err := caller.NewObject(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	tref, err := caller.Deref(top)
	if err != nil {
		t.Fatal(err)
	}
	if err := tref.SetInt("data", 0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := tref.SetPtr("left", 0, left); err != nil {
		t.Fatal(err)
	}
	before := callee.Stats()
	if got, want := sessionCall(t, caller, 2, "sumTree", top)[0].Int64(), int64(1000+200+3+4); got != want {
		t.Fatalf("sum over the fresh node = %d, want %d", got, want)
	}
	if n := callee.Stats().ItemsInstalled - before.ItemsInstalled; n < 2 {
		t.Fatalf("the session installed %d items; want the child fetched cold with the fresh node", n)
	}
	if stale, has := memoOf(); !stale || has {
		t.Errorf("left child stale=%v memo=%v after a fetch-path install, want a stale row without a memo", stale, has)
	}
}

// TestValidateMissShipsFullBody: a hashed want is answered "current" or
// with the full body, whatever the origin served this peer before. The origin has
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
	if _, answers := tap.take(); len(answers) != 1 || !answers[0].Current {
		t.Fatalf("session 2 answers = %+v, want one token", answers)
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
	if _, answers := tap.take(); len(answers) != 1 || answers[0].Current {
		t.Fatalf("session 3 answers = %+v, want the rewrite to travel as one full body", answers)
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
// degrades to a plain refetch and no error surfaces. After a warm session
// the pointing datum also holds a memo, which the removal voids.
func TestWarmFreedPointeeDegradesToRefetch(t *testing.T) {
	for _, c := range []struct{ inSession, memo bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		inSession := c.inSession
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
		if c.memo {
			sessionCall(t, caller, 2, "sumTree", root)
			for _, e := range callee.table.Entries() {
				if !e.HasMemo {
					t.Fatalf("after a warm session row %v has no memo", e.LP)
				}
			}
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
			t.Fatalf("%+v: the callee lost its warm rows", c)
		}
		rootRow, _ := callee.table.LookupAddr(rootAddr)
		if _, err := callee.encodeStale(rootRow); !rootRow.Stale || !errors.Is(err, swizzle.ErrNotSwizzled) {
			t.Fatalf("%+v: root stale=%v encodes with err = %v, want a stale datum its dangling pointer makes unencodable",
				c, rootRow.Stale, err)
		}
		before := callee.Stats()
		if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 4 {
			t.Fatalf("%+v: post-free sum = %d, want 4 (root + right)", c, got)
		}
		after := callee.Stats()
		if after.ItemsInstalled == before.ItemsInstalled {
			t.Errorf("%+v: the unencodable root was not refetched", c)
		}
		if hits := after.CohRevalidateHits - before.CohRevalidateHits; hits != 1 {
			t.Errorf("%+v: revalidate hits = %d, want 1 (the right child still revalidates)", c, hits)
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
// is not remembered, and no per-peer state remains. The clients' sessions
// never send this origin an INVALIDATE (it only served FETCHes), so their
// admission entries stay until evicted — but the admission table is at its
// count bound by client 3 and holds the same fixed size from then on.
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
	if float64(at8) > 1.02*float64(at2) {
		t.Errorf("settled heap grew from %d B after client 2 to %d B after client 8 (more than 2%%)", at2, at8)
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

// --- the fold: a warm fault is a cold fault that carries hashes ---

// TestHashedFetchMatchesValidateRule is the differential test of the
// fold. Over random pointer graphs and random rewrites at home, every
// answer to a hashed want is what the retired VALIDATE serve answered —
// a token exactly when the hash of the origin's current encoding equals
// the offered sum, the current body otherwise — the revalidation counters
// count exactly those answers, and every revalidated datum ends the
// session holding the origin's bytes.
func TestHashedFetchMatchesValidateRule(t *testing.T) {
	var tokens, bodies uint64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tap validateTap
		caller, callee := warmPair(t, func(id uint32, o *Options) {
			o.PageSize = 256 << uint(seed%3) // several pages, so ride-alongs happen
			if seed%2 == 0 {
				o.Traversal = TraverseDFS // the origin answers wants last to first
			}
			if id == 2 {
				tap.wrap(t, o)
			}
		})
		registerGraphWalk(t, callee)
		g := buildGraph(t, caller, rng, 20+rng.Intn(60))
		sessionCall(t, caller, 2, "walk", g.nodes[0], BoolValue(false))
		for sess := 1; sess <= 4; sess++ {
			for i := range g.nodes {
				if rng.Intn(4) != 0 {
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
			// The reference: the origin's encoding of every node, which a
			// session that writes nothing leaves unchanged.
			home := make(map[wire.LongPtr][]byte, len(g.nodes))
			for _, v := range g.nodes {
				home[v.LP] = encodeLocalObject(t, caller, v)
			}
			tap.take()
			before := callee.Stats()
			if got, want := sessionCall(t, caller, 2, "walk", g.nodes[0], BoolValue(false))[0].Int64(), g.sum(); got != want {
				t.Fatalf("seed %d session %d: sum = %d, want %d", seed, sess, got, want)
			}
			after := callee.Stats()
			offers, answers := tap.take()
			offered := make(map[wire.LongPtr]uint64, len(offers))
			for _, o := range offers {
				offered[o.lp] = o.sum
			}
			if len(answers) != len(offers) || len(offered) != len(offers) {
				t.Fatalf("seed %d session %d: %d answers to %d offers (%d distinct)", seed, sess, len(answers), len(offers), len(offered))
			}
			var hits, misses, missBytes uint64
			for _, it := range answers {
				sum, ok := offered[it.LP]
				if !ok {
					t.Fatalf("seed %d session %d: answer for %v, which was not offered", seed, sess, it.LP)
				}
				cur := home[it.LP]
				if want := wire.Sum64(cur) == sum; it.Current != want {
					t.Fatalf("seed %d session %d: %v answered current=%v, the hash rule says %v", seed, sess, it.LP, it.Current, want)
				}
				if it.Current {
					hits++
				} else {
					if !bytes.Equal(it.Bytes, cur) {
						t.Fatalf("seed %d session %d: %v body %x, origin holds %x", seed, sess, it.LP, it.Bytes, cur)
					}
					misses++
					missBytes += uint64(len(cur))
				}
				addr, _ := callee.table.LookupLP(it.LP)
				e, _ := callee.table.LookupAddr(addr)
				if mine, err := callee.encodeStale(e); err != nil || !bytes.Equal(mine, cur) {
					t.Fatalf("seed %d session %d: %v ended the session as %x (%v), origin holds %x", seed, sess, it.LP, mine, err, cur)
				}
			}
			if d := after.CohRevalidateHits - before.CohRevalidateHits; d != hits {
				t.Errorf("seed %d session %d: CohRevalidateHits grew by %d, %d tokens arrived", seed, sess, d, hits)
			}
			if d := after.CohRevalidateMisses - before.CohRevalidateMisses; d != misses {
				t.Errorf("seed %d session %d: CohRevalidateMisses grew by %d, %d bodies arrived", seed, sess, d, misses)
			}
			if d := after.CohRevalidateBytes - before.CohRevalidateBytes; d != missBytes {
				t.Errorf("seed %d session %d: CohRevalidateBytes grew by %d, bodies carried %d", seed, sess, d, missBytes)
			}
			if after.CohRevalidateMsgs == before.CohRevalidateMsgs && len(offers) > 0 {
				t.Errorf("seed %d session %d: %d wants offered with no revalidation message counted", seed, sess, len(offers))
			}
			tokens, bodies = tokens+hits, bodies+misses
		}
	}
	if tokens == 0 || bodies == 0 {
		t.Fatalf("the rule was not exercised both ways: %d tokens, %d bodies", tokens, bodies)
	}
	t.Logf("%d tokens, %d bodies", tokens, bodies)
}

// TestHashedWantsAreNotExpanded: the origin answers a hashed FETCH want
// by want and ships no closure, whatever budget the request names — an
// all-miss request gets exactly its wants' bodies, an all-hit one exactly
// their tokens — and counts it as a revalidation, not a served fetch.
func TestHashedWantsAreNotExpanded(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	origin := newRuntimeOnNet(t, net, 1)
	root := buildTree(t, origin, 4)
	lps := treeNodeLPs(t, origin, root)[:3]
	bodies := make([][]byte, len(lps))
	for i, lp := range lps {
		v, err := origin.ImportPtr(lp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = encodeLocalObject(t, origin, v)
	}
	raw := rawAttach(t, net, 7)
	for seq, hit := range []bool{false, true} {
		p := wire.FetchPayload{Wants: lps, Budget: 8192, Sums: make([]uint64, len(lps))}
		for i := range lps {
			if p.Sums[i] = wire.Sum64(bodies[i]); !hit {
				p.Sums[i]++
			}
		}
		if err := raw.Send(sealed(wire.Message{Kind: wire.KindFetch, Seq: uint64(seq + 1), To: 1, Payload: p.Encode()})); err != nil {
			t.Fatal(err)
		}
		reply, err := raw.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rp, err := wire.DecodeItemsPayload(reply.Payload)
		if err != nil || reply.Kind != wire.KindFetchReply || reply.Err != "" {
			t.Fatalf("hit=%v: reply %v %q, %v", hit, reply.Kind, reply.Err, err)
		}
		if len(rp.Items) != len(lps) {
			t.Fatalf("hit=%v: %d items answer %d hashed wants (a closure was shipped)", hit, len(rp.Items), len(lps))
		}
		for i, it := range rp.Items {
			if it.LP != lps[i] || it.Current != hit || (!hit && !bytes.Equal(it.Bytes, bodies[i])) {
				t.Errorf("hit=%v: item %d = %+v, want %v answered current=%v", hit, i, it, lps[i], hit)
			}
		}
	}
	if s := origin.Stats(); s.CohRevalidateMsgs != 2 || s.FetchesServed != 0 {
		t.Errorf("origin counted %d revalidations and %d served fetches, want 2 and 0", s.CohRevalidateMsgs, s.FetchesServed)
	}
}

// TestCurrentItemOnUnhashedFetchIsRejected: only an offered sum can make a
// copy current, so an ItemCurrent item in the reply to an unhashed FETCH
// is a protocol error, on the demand fault and on the lazy callback alike.
func TestCurrentItemOnUnhashedFetchIsRejected(t *testing.T) {
	for _, policy := range []Policy{PolicySmart, PolicyLazy} {
		net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		lp := wire.LongPtr{Space: 1, Addr: 0x1000, Type: nodeType}
		token := (&wire.ItemsPayload{Items: []wire.DataItem{{LP: lp, Current: true}}}).Encode()
		origin := rawAttach(t, net, 1)
		go func() {
			for {
				m, err := origin.Recv()
				if err != nil {
					return
				}
				r := wire.Message{Kind: m.Kind.ReplyKind(), Session: m.Session, Seq: m.Seq, To: m.From, Payload: []byte{}}
				if m.Kind == wire.KindFetch {
					r.Payload = token
				}
				_ = origin.Send(sealed(r))
			}
		}()
		node, err := net.Attach(2)
		if err != nil {
			t.Fatal(err)
		}
		client, err := New(Options{ID: 2, Node: node, Registry: newTestRegistry(t), Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = client.Close() })
		if err := client.BeginSession(); err != nil {
			t.Fatal(err)
		}
		v, err := client.ImportPtr(lp)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := client.Deref(v)
		if err == nil {
			_, err = ref.Int("data", 0)
		}
		if !errors.Is(err, errCurrentUnhashed) {
			t.Errorf("%v: reading through a token answering an unhashed fetch: err = %v, want errCurrentUnhashed", policy, err)
		}
	}
}

// TestStreamedHashedFetchPromotesAndDegrades: a hashed FETCH whose reply
// streams installs as it goes — each chunk's tokens promote on arrival —
// and whatever a torn stream leaves unanswered degrades to a plain want
// when the exchange ends, whether the tear stops the faulting access
// (before its page is complete) or a background drain (after).
func TestStreamedHashedFetchPromotesAndDegrades(t *testing.T) {
	cases := []struct {
		name       string
		drop       int // chunk ordinal lost in flight; -1 for none
		hits       uint64
		resident   int64 // rows resident once the root's page is
		wantsAfter bool  // whether the tear left plain wants behind
	}{
		{"intact", -1, 15, 15, false},
		{"torn-before-detach", 2, 2, -1, true},
		{"torn-in-drain", 5, 5, 5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var armed, dropped atomic.Bool
			caller, callee := warmPair(t, func(id uint32, o *Options) {
				if id == 1 {
					o.StreamChunkBytes = 20 // one item a chunk
					return
				}
				o.PageSize = 64 // four nodes a page
				o.Node = &flakyNode{Node: o.Node, recvHook: func(m wire.Message) (bool, time.Duration) {
					if !armed.Load() || m.Kind != wire.KindFetchChunk {
						return true, 0
					}
					h, err := wire.DecodeFetchChunkHeader(m.Payload)
					if err == nil && int(h.Chunk) == tc.drop && !dropped.Swap(true) {
						return false, 0
					}
					return true, 0
				}}
			})
			// peek reads the root, installs the streamed tail as it parks, and
			// reports the rows resident and still stale.
			err := callee.Register("peek", func(ctx *Ctx, args []Value) ([]Value, error) {
				rt := ctx.Runtime()
				ref, err := rt.Deref(args[0])
				if err != nil {
					return nil, err
				}
				if _, err := ref.Int("data", 0); err != nil {
					return nil, err
				}
				for rt.InflightFetches() > 0 {
					rt.InstallParked()
					runtime.Gosched()
				}
				var resident, stale, wants int64
				for _, e := range rt.table.Entries() {
					switch {
					case e.Resident:
						resident++
					case e.Stale:
						stale++
					default:
						wants++
					}
				}
				return []Value{Int64Value(resident), Int64Value(stale), Int64Value(wants)}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			root := buildTree(t, caller, 4) // 15 nodes
			sessionCall(t, caller, 2, "peek", root)
			armed.Store(true)
			before := callee.Stats()
			got := sessionCall(t, caller, 2, "peek", root)
			after := callee.Stats()
			resident, stale, wants := got[0].Int64(), got[1].Int64(), got[2].Int64()
			if stale != 0 {
				t.Errorf("%d rows still stale after the exchange ended", stale)
			}
			if tc.resident >= 0 && resident != tc.resident {
				t.Errorf("%d rows resident, want %d", resident, tc.resident)
			}
			if (wants > 0) != tc.wantsAfter {
				t.Errorf("%d plain wants left behind, want some = %v", wants, tc.wantsAfter)
			}
			if d := after.CohRevalidateHits - before.CohRevalidateHits; d != tc.hits {
				t.Errorf("%d tokens promoted, want %d", d, tc.hits)
			}
			if d := after.CohRevalidateMsgs - before.CohRevalidateMsgs; d != 1 {
				t.Errorf("%d hashed fetches sent, want 1", d)
			}
			if tc.drop >= 0 && !dropped.Load() {
				t.Fatal("the stream never reached the chunk to drop")
			}
		})
	}
}

// TestWarmPathAllocs is the warm path's allocation gate, one figure per
// step. An origin answering a 512-want hashed FETCH whose every answer is
// a token encodes each want into one arena and truncates it again; an
// encoder per want would cost over 500. Demoting 32 767 resident rows is
// one pass over the table; one allocation per row would cost about 33 k.
// Building the offer for a full stale page walks the rows into reused
// scratch and copies out the wants and the sums: two allocations, where
// growing them would cost one per doubling. The ceilings leave room for
// pool noise, not for a per-want or per-row allocation.
func TestWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var reply wire.Message // what the origin last sent
	origin, callee := pair(t, func(id uint32, o *Options) {
		if id == 1 {
			// Replies vanish at the node: nobody is waiting for them. The
			// node is their last holder, so it releases each one's pooled
			// frame when the next replaces it, as a receiver would.
			o.Node = &flakyNode{Node: o.Node, sendHook: func(m wire.Message) error {
				reply.ReleaseFrame()
				reply = m
				return errSwallowSend
			}}
		}
	})
	t.Cleanup(func() { reply.ReleaseFrame() })
	root := buildTree(t, origin, 9) // 511 nodes
	extra := buildTree(t, origin, 1)
	lps := append(treeNodeLPs(t, origin, root), extra.LP)
	p := wire.FetchPayload{Wants: lps, Sums: make([]uint64, len(lps))}
	for i, lp := range lps {
		v, err := origin.ImportPtr(lp)
		if err != nil {
			t.Fatal(err)
		}
		p.Sums[i] = wire.Sum64(encodeLocalObject(t, origin, v))
	}
	m := wire.Message{Kind: wire.KindFetch, Session: 1, Seq: 1, From: 2, To: 1, Payload: p.Encode()}
	origin.serveFetch(m)
	rp, err := wire.DecodeItemsPayload(reply.Payload)
	if err != nil || len(rp.Items) != len(lps) || slices.ContainsFunc(rp.Items, func(it wire.DataItem) bool { return !it.Current }) {
		t.Fatalf("the serve did not answer %d tokens: %d items, %v", len(lps), len(rp.Items), err)
	}
	serve := testing.AllocsPerRun(50, func() { origin.serveFetch(m) })
	if serve > 16 {
		t.Errorf("serving a %d-want all-token hashed FETCH allocates %.0f times; want at most 16", len(lps), serve)
	}

	const rows = 32767
	addrs := make([]vmem.VAddr, rows)
	for i := range addrs {
		a, _, err := callee.table.Swizzle(wire.LongPtr{Space: 1, Addr: vmem.VAddr(0x10000 + 16*i), Type: nodeType})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	demote := testing.AllocsPerRun(5, func() {
		for _, a := range addrs {
			callee.table.MarkResident(a)
		}
		callee.demoteWarm()
	})
	if n := callee.table.Len(); n != rows {
		t.Fatalf("table holds %d rows after demotion, want %d (fell back to invalidation?)", n, rows)
	}
	if demote > 8 {
		t.Errorf("demoting %d resident rows allocates %.0f times; want at most 8", rows, demote)
	}

	pn := callee.space.PageOf(addrs[0])
	perPage := len(callee.table.PageEntries(pn))
	wants, _ := offerOf(t, callee, pn, 1, true)
	if len(wants) <= perPage {
		t.Fatalf("the offer for page %d holds %d wants; want all %d rows and ride-alongs", pn, len(wants), perPage)
	}
	// The offer encodes into a pooled frame, which the exchange releases
	// when it is over: so does this loop.
	offer := testing.AllocsPerRun(50, func() {
		f := inflightFetch{fetchKey: fetchKey{pn: pn, origin: 1}, stale: true}
		callee.offer(&f)
		f.frame.Release()
	})
	if offer > 0 {
		t.Errorf("building a %d-want hashed offer allocates %.0f times; want 0", len(wants), offer)
	}

	// A fault asks the table which origins owe its page into small arrays
	// of its own, as completePage does.
	var plainN, staleN int
	origins := testing.AllocsPerRun(50, func() {
		var plainBuf, staleBuf [4]uint32
		plain, stale, _ := callee.table.PageOrigins(pn, plainBuf[:0], staleBuf[:0])
		plainN, staleN = len(plain), len(stale)
	})
	if plainN != 0 || staleN != 1 {
		t.Fatalf("PageOrigins(%d) names %d plain and %d stale origins; want the one stale origin", pn, plainN, staleN)
	}
	if origins != 0 {
		t.Errorf("PageOrigins on a one-origin page allocates %.0f times; want 0", origins)
	}
	t.Logf("allocs: hashed serve %.0f, demotion %.0f, hashed offer %.0f, page origins %.0f", serve, demote, offer, origins)
}

// --- teardown micro-benchmark ---

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

// --- the offer: a warm fault walks its rows off the page records ---

// offerOf returns the wants and sums of the FETCH payload offer builds
// for page pn from origin, decoded.
func offerOf(t *testing.T, rt *Runtime, pn, origin uint32, stale bool) ([]wire.LongPtr, []uint64) {
	t.Helper()
	f := &inflightFetch{fetchKey: fetchKey{pn: pn, origin: origin}, stale: stale}
	rt.offer(f)
	if f.frame == nil {
		if f.n != 0 {
			t.Fatalf("offer for page %d from %d: no payload for %d wants", pn, origin, f.n)
		}
		return nil, nil
	}
	defer f.frame.Release()
	if n := f.frame.Refs(); n != 1 {
		t.Fatalf("offer for page %d from %d: the request frame holds %d references, want 1", pn, origin, n)
	}
	p, err := wire.DecodeFetchPayload(f.frame.Enc().Bytes())
	if err != nil || int(f.n) != len(p.Wants) || stale != (len(p.Sums) > 0) || stale == (p.Budget != 0) {
		t.Fatalf("offer for page %d from %d: %+v, %v; recorded %d wants", pn, origin, p, err, f.n)
	}
	return p.Wants, p.Sums
}

// lpPathOffer is the offer the long-pointer path built before the row
// walk: page pn's missing rows from origin (PageWants, stale rows split
// off, grouped by origin), then, for a hashed FETCH, the stale rows of
// other pages within the closure budget (StaleWants). A plain FETCH asks
// for its own page's rows and nothing more. A hashed offer's wants were
// then found again by long pointer, encoded from their pages and summed
// (validateTuplesFor).
func lpPathOffer(t *testing.T, rt *Runtime, pn, origin uint32, stale bool) (wants []wire.LongPtr, sums []uint64, own int) {
	t.Helper()
	for _, e := range rt.table.PageEntries(pn) {
		if !e.Resident && e.Stale == stale && e.LP.Space == origin {
			wants = append(wants, e.LP)
		}
	}
	own = len(wants)
	if !stale {
		return wants, nil, own
	}
	lastPage := func(e swizzle.Entry) uint32 { return rt.space.PageOf(e.Addr + vmem.VAddr(max(e.Size, 1)-1)) }
	var pages []uint32
	for _, e := range rt.table.Entries() {
		for p := rt.space.PageOf(e.Addr); p <= lastPage(e); p++ {
			pages = append(pages, p)
		}
	}
	slices.Sort(pages)
	left := rt.closure
ride:
	for _, p := range slices.Compact(pages) {
		rows := rt.table.PageEntries(p)
		if p == pn || !slices.ContainsFunc(rows, func(e swizzle.Entry) bool { return e.Stale }) {
			continue
		}
		for _, e := range rows {
			if first := rt.space.PageOf(e.Addr); first != p || e.LP.Space != origin || !e.Stale || first < pn && pn <= lastPage(e) {
				continue
			}
			rv, err := rt.res.Resolve(e.LP.Type)
			if err != nil {
				t.Fatal(err)
			}
			if rv.Canon > left {
				break ride
			}
			left -= rv.Canon
			wants = append(wants, e.LP)
		}
	}
	for _, lp := range wants {
		addr, _ := rt.table.LookupLP(lp)
		e, _ := rt.table.LookupAddr(addr)
		b, err := rt.encodeStale(e)
		if err != nil {
			t.Fatalf("encode %v: %v", lp, err)
		}
		sums = append(sums, wire.Sum64(b))
	}
	return wants, sums, own
}

// TestOfferMatchesLPPath is the differential test of the row-walk offer
// against the long-pointer path it replaced (lpPathOffer), hashed and
// plain: the same wants in the same order and the same sums. The tables
// are laid out by real sessions over random graphs, with BFS and DFS
// origins, four page and closure sizes (the small closures cut the
// ride-alongs off mid-page), and under
// PolicyMixed rows of a second origin planted between them on shared
// pages. Before comparing, random rows are promoted or stripped of their
// stale mark, so pages mix resident, stale and plain rows.
func TestOfferMatchesLPPath(t *testing.T) {
	const other = 3 // the planted origin: never contacted
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mixed := seed%2 == 1
		caller, callee := warmPair(t, func(_ uint32, o *Options) {
			o.PageSize = 256 << uint(seed%3)
			o.ClosureSize = []int{64, 200, 1000, 8192}[seed%4]
			if seed > 4 {
				o.Traversal = TraverseDFS
			}
			if mixed {
				o.AllocPolicy = swizzle.PolicyMixed
			}
		})
		planted := 0
		err := callee.Register("walkPlant", func(ctx *Ctx, args []Value) ([]Value, error) {
			rt := ctx.Runtime()
			seen := map[wire.LongPtr]bool{}
			queue := []Value{args[0]}
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
				for _, f := range []string{"left", "right"} {
					p, err := ref.Ptr(f, 0)
					if err != nil {
						return nil, err
					}
					queue = append(queue, p)
				}
				if mixed && rng.Intn(3) == 0 {
					// A resident row of another origin beside the frontier.
					planted++
					addr, _, err := rt.table.Swizzle(wire.LongPtr{Space: other, Addr: vmem.VAddr(0x4000 + 16*planted), Type: nodeType})
					if err != nil {
						return nil, err
					}
					rt.table.MarkResident(addr)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		g := buildGraph(t, caller, rng, 40+rng.Intn(80))
		sessionCall(t, caller, 2, "walkPlant", g.nodes[0])
		for _, e := range callee.table.Entries() {
			switch rng.Intn(6) {
			case 0:
				callee.table.MarkResident(e.Addr)
			case 1:
				callee.table.ClearStale([]wire.LongPtr{e.LP})
			}
		}
		var compared, rides [2]int
		for _, e := range callee.table.Entries() {
			for _, origin := range []uint32{1, other} {
				for k, stale := range []bool{false, true} {
					pn := callee.space.PageOf(e.Addr)
					want, wantSums, own := lpPathOffer(t, callee, pn, origin, stale)
					got, gotSums := offerOf(t, callee, pn, origin, stale)
					if !slices.Equal(got, want) || !slices.Equal(gotSums, wantSums) {
						t.Fatalf("seed %d: offer for page %d from %d, stale=%v:\n got %v %x\nwant %v %x",
							seed, pn, origin, stale, got, gotSums, want, wantSums)
					}
					compared[k] += len(got)
					rides[k] += len(got) - own
				}
			}
		}
		if compared[1] == 0 || rides[1] == 0 || compared[0] == 0 || mixed && planted == 0 {
			t.Fatalf("seed %d: %v wants compared (plain, hashed), %v of them ride-alongs, %d rows planted", seed, compared, rides, planted)
		}
	}
}

// TestMixedStalePageRevalidatesFromEveryOrigin: under PolicyMixed one
// cache page holds warm rows of two origins, and its fault sends each
// origin its own hashed FETCH, concurrently, both for that page. Every
// row comes back by token except the one datum rewritten at home, and
// nothing is fetched in full.
func TestMixedStalePageRevalidatesFromEveryOrigin(t *testing.T) {
	net, a, clients := pipelineNet(t, 1, func(o *Options) { o.AllocPolicy = swizzle.PolicyMixed })
	client := clients[0]
	node, err := net.Attach(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{ID: 3, Node: node, Registry: a.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	rootA, rootB := buildTree(t, a, 4), buildTree(t, b, 4)
	rec := &RecordingTracer{}
	client.SetTracer(rec)
	walk := func() int64 {
		t.Helper()
		if err := client.BeginSession(); err != nil {
			t.Fatal(err)
		}
		// Both roots are swizzled before either is touched: their rows share
		// a page, whose fault needs both origins.
		var sum int64
		for _, v := range []Value{mustImport(t, client, rootA.LP), mustImport(t, client, rootB.LP)} {
			s, err := sumTree(client, v)
			if err != nil {
				t.Fatal(err)
			}
			sum += s
		}
		if err := client.EndSession(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if got := walk(); got != 2*wantSum(4) {
		t.Fatalf("cold sum = %d, want %d", got, 2*wantSum(4))
	}
	ref, err := b.Deref(rootB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 101); err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	before := client.Stats()
	if got, want := walk(), 2*wantSum(4)+100; got != want {
		t.Fatalf("warm sum = %d, want %d", got, want)
	}
	after := client.Stats()
	if d := after.FetchesSent - before.FetchesSent; d != 0 {
		t.Errorf("%d full FETCHes in the warm session, want 0", d)
	}
	if hits, misses := after.CohRevalidateHits-before.CohRevalidateHits, after.CohRevalidateMisses-before.CohRevalidateMisses; hits != 29 || misses != 1 {
		t.Errorf("%d tokens and %d bodies, want 29 and 1", hits, misses)
	}
	targets := map[uint32][]uint32{} // page -> origins sent a hashed FETCH for it
	for _, e := range rec.Events() {
		if e.Kind == EvValidateSent {
			targets[e.Page] = append(targets[e.Page], e.Target)
		}
	}
	shared := false
	for _, origins := range targets {
		shared = shared || slices.Contains(origins, 1) && slices.Contains(origins, 3)
	}
	if !shared {
		t.Errorf("no page revalidated from both origins: %v", targets)
	}
}

func mustImport(t *testing.T, rt *Runtime, lp wire.LongPtr) Value {
	t.Helper()
	v, err := rt.ImportPtr(lp)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// BenchmarkWarmSession measures one warm session over a persistent pair:
// BeginSession, a call that sums a 1023-node tree the callee cached in an
// earlier session, EndSession. One node in 20 is rewritten at home before
// each session, so the hashed FETCHes carry bodies as well as tokens.
func BenchmarkWarmSession(b *testing.B) {
	caller, callee := pair(b, nil)
	registerSumProc(b, callee)
	root := buildTree(b, caller, 10)
	var refs []Ref
	for i, lp := range treeNodeLPs(b, caller, root) {
		if i%20 == 0 {
			ref, err := caller.Deref(caller.PtrValueAt(lp.Addr, lp.Type))
			if err != nil {
				b.Fatal(err)
			}
			refs = append(refs, ref)
		}
	}
	sessionCall(b, caller, 2, "sumTree", root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ref := range refs {
			d, err := ref.Int("data", 0)
			if err == nil {
				err = ref.SetInt("data", 0, d^1)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		sessionCall(b, caller, 2, "sumTree", root)
	}
}
