package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
	"smartrpc/internal/wire"
)

// Tests for the write path's bookkeeping: the Touched mark on the table
// row, the circulating modified set as a slice, the page-driven collection
// of the modified data set, and the reply the replay cache retains.

// bumpTree adds one to every node of the tree under root, through rt.
func bumpTree(rt *Runtime, root Value) error {
	if root.IsNullPtr() {
		return nil
	}
	ref, err := rt.Deref(root)
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
	for _, f := range []string{"left", "right"} {
		c, err := ref.Ptr(f, 0)
		if err != nil {
			return err
		}
		if err := bumpTree(rt, c); err != nil {
			return err
		}
	}
	return nil
}

func registerBump(t testing.TB, rt *Runtime) {
	t.Helper()
	err := rt.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		return nil, bumpTree(ctx.Runtime(), args[0])
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rowCounts reports how many of rt's table rows are touched, resident and
// stale.
func rowCounts(rt *Runtime) (touched, resident, stale int) {
	rt.table.Visit(func(e swizzle.Entry) bool {
		if e.Touched {
			touched++
		}
		if e.Resident {
			resident++
		}
		if e.Stale {
			stale++
		}
		return true
	})
	return
}

// TestTouchedClearsWithTheSession: the write-back mark lives on the table
// row, and the warm cache keeps rows across sessions — so every way a
// session can end has to clear it: a served INVALIDATE, the ground's own
// EndSession, and an abort.
func TestTouchedClearsWithTheSession(t *testing.T) {
	caller, callee := pair(t, nil)
	registerBump(t, callee)
	const levels, nodes = 4, 15
	root := buildTree(t, caller, levels)
	theirs := buildTree(t, callee, levels)
	err := callee.Register("theirs", func(*Ctx, []Value) ([]Value, error) {
		return []Value{theirs}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The callee writes the caller's tree; the caller writes the callee's.
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "bump", []Value{root}); err != nil {
		t.Fatal(err)
	}
	if touched, resident, _ := rowCounts(callee); touched != nodes || resident != nodes {
		t.Fatalf("callee mid-session: %d touched of %d resident rows, want %d of %d", touched, resident, nodes, nodes)
	}
	res, err := caller.Call(2, "theirs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bumpTree(caller, res[0]); err != nil {
		t.Fatal(err)
	}
	if touched, _, _ := rowCounts(caller); touched != nodes {
		t.Fatalf("ground mid-session: %d touched rows, want %d", touched, nodes)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	for name, rt := range map[string]*Runtime{"ground after EndSession": caller, "callee after INVALIDATE": callee} {
		if touched, resident, stale := rowCounts(rt); touched != 0 || resident != 0 || stale != nodes {
			t.Errorf("%s: touched=%d resident=%d stale=%d, want 0, 0 and %d warm rows", name, touched, resident, stale, nodes)
		}
	}
	if got, err := sumTree(callee, theirs); err != nil || got != wantSum(levels)+nodes {
		t.Errorf("callee's tree after the ground's write-back sums to %d, %v; want %d", got, err, wantSum(levels)+nodes)
	}

	// Abort mid-session: the rows go, marks and all.
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "bump", []Value{root}); err != nil {
		t.Fatal(err)
	}
	if touched, _, _ := rowCounts(callee); touched == 0 {
		t.Fatal("callee wrote the tree and no row is touched")
	}
	callee.AbortSession()
	caller.AbortSession()
	if n := callee.table.Len(); n != 0 {
		t.Errorf("callee keeps %d rows after AbortSession", n)
	}
	if err := callee.CheckIdleInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRevalidatedNeighborStaysHomeUnderConcurrent: a datum this space wrote
// in session 1 and merely read in session 2 — revalidated in place, on a
// page session 2 dirtied by writing its neighbor — is not part of session
// 2's modified data set under Options.Concurrent. A Touched mark that
// survived the demotion would ship it, over whatever another client
// committed at the origin in between.
func TestRevalidatedNeighborStaysHomeUnderConcurrent(t *testing.T) {
	caller, callee := pair(t, func(_ uint32, o *Options) { o.Concurrent = true })
	root := buildTree(t, caller, 2) // root=1, left=2, right=3
	err := callee.Register("bumpRoot", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return nil, ref.SetInt("data", 0, d+10)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = callee.Register("readRootBumpLeft", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		ref, err := rt.Deref(args[0])
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		l, err := ref.Ptr("left", 0)
		if err != nil {
			return nil, err
		}
		lref, err := rt.Deref(l)
		if err != nil {
			return nil, err
		}
		if err := lref.SetInt("data", 0, 200); err != nil {
			return nil, err
		}
		return []Value{Int64Value(d)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sessionCall(t, caller, 2, "bumpRoot", root)
	pages := map[uint32]bool{}
	for _, e := range callee.table.Entries() {
		pages[callee.space.PageOf(e.Addr)] = true
	}
	if len(pages) != 1 || callee.table.Len() != 3 {
		t.Fatalf("the three nodes occupy pages %v in %d rows; the test needs them on one page", pages, callee.table.Len())
	}
	before := callee.Stats()
	res := sessionCall(t, caller, 2, "readRootBumpLeft", root)
	after := callee.Stats()
	if res[0].Int64() != 11 {
		t.Errorf("session 2 read root = %d, want 11", res[0].Int64())
	}
	if after.CohRevalidateHits == before.CohRevalidateHits {
		t.Error("session 2 did not revalidate: the neighbor was refetched, not carried over warm")
	}
	if got := after.DirtyItemsSent - before.DirtyItemsSent; got != 1 {
		t.Errorf("session 2 shipped %d modified data home, want 1 (the left child alone)", got)
	}
	if got, err := sumTree(caller, root); err != nil || got != 11+200+3 {
		t.Errorf("tree at home sums to %d, %v; want %d", got, err, 11+200+3)
	}
}

// TestFetchPathCopyDoesNotClobberLocalWrite: the bounded closure and the
// prefetcher over-deliver, so a fetch reply may carry a datum this session
// has already written. The over-delivered copy, encoded from the origin's
// pre-write state, must not replace the pending modification.
func TestFetchPathCopyDoesNotClobberLocalWrite(t *testing.T) {
	caller, callee := pair(t, nil)
	root := buildTree(t, caller, 1)
	orig := encodeLocalObject(t, caller, root)
	err := callee.Register("writeThenRefetch", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		ref, err := rt.Deref(args[0])
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, 99); err != nil {
			return nil, err
		}
		e, _ := rt.table.LookupAddr(args[0].Addr)
		if err := rt.installItems(1, rt.Session(), itemFrame(t, wire.DataItem{LP: e.LP, Bytes: orig}), pathFetch); err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		return []Value{Int64Value(d)}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sessionCall(t, caller, 2, "writeThenRefetch", root)
	if got := res[0].Int64(); got != 99 {
		t.Errorf("the callee reads %d after the over-delivered copy arrived, want its own 99", got)
	}
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ref.Int("data", 0); err != nil || got != 99 {
		t.Errorf("value at home = %d, %v; want 99", got, err)
	}
}

// TestCirculatingSetHoldsEachDatumOnce: the circulating modified set is a
// slice that arrivals append to and crossings compact, so repeated
// crossings do not grow it; a datum freed mid-session leaves every
// session's set; one session's teardown leaves the others' sets alone.
func TestCirculatingSetHoldsEachDatumOnce(t *testing.T) {
	caller, callee := pair(t, nil)
	registerBump(t, callee)
	// freeLeftmost cuts the leftmost leaf off its parent and frees it.
	err := callee.Register("freeLeftmost", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		parent, child := Ref{}, args[0]
		for {
			ref, err := rt.Deref(child)
			if err != nil {
				return nil, err
			}
			next, err := ref.Ptr("left", 0)
			if err != nil {
				return nil, err
			}
			if next.IsNullPtr() {
				break
			}
			parent, child = ref, next
		}
		if err := parent.SetPtr("left", 0, NullPtr(nodeType)); err != nil {
			return nil, err
		}
		return nil, rt.ExtendedFree(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 15
	root := buildTree(t, caller, 4)
	lps := treeNodeLPs(t, caller, root)
	leaf := lps[3] // preorder: root, left, left-left, left-left-left
	set := func(rt *Runtime, sess uint64) []wire.LongPtr {
		rt.modMu.Lock()
		defer rt.modMu.Unlock()
		return slices.Clone(rt.sessionModified[sess])
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	sess := caller.Session()
	for i := 0; i < 5; i++ {
		if _, err := caller.Call(2, "bump", []Value{root}); err != nil {
			t.Fatal(err)
		}
		// Each RETURN appended its batch; the next CALL compacts.
		if n := len(set(caller, sess)); n > 2*nodes {
			t.Fatalf("after crossing %d the set holds %d entries for %d data", i+1, n, nodes)
		}
	}
	circulating := func() int {
		lps := caller.circulating(sess)
		defer caller.releaseCirculating(lps)
		return len(lps)
	}
	items := circulating()
	got := set(caller, sess)
	if items != nodes || len(got) != nodes || !slices.IsSortedFunc(got, compareLongPtr) {
		t.Fatalf("after five crossings: %d items from a set of %d (sorted=%v), want %d distinct",
			items, len(got), slices.IsSortedFunc(got, compareLongPtr), nodes)
	}
	for _, lp := range lps {
		if !slices.Contains(got, lp) {
			t.Errorf("%v was modified and is not circulating", lp)
		}
	}
	if _, err := caller.Call(2, "freeLeftmost", []Value{root}); err != nil {
		t.Fatal(err)
	}
	if got := set(caller, sess); slices.Contains(got, leaf) {
		t.Errorf("freed datum %v still circulates: %v", leaf, got)
	}
	if items := circulating(); items != nodes-1 {
		t.Errorf("after the free the set holds %d data, want %d", items, nodes-1)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	if got, err := sumTree(caller, root); err != nil || got != wantSum(4)+5*nodes-(4+5) {
		t.Errorf("tree at home sums to %d, %v; want %d", got, err, wantSum(4)+5*nodes-(4+5))
	}

	// Two sessions' sets on one origin.
	x, y, z := lps[0], lps[1], lps[2]
	caller.modMu.Lock()
	caller.sessionModified[71] = []wire.LongPtr{x, y, y}
	caller.sessionModified[72] = []wire.LongPtr{y, z}
	caller.modMu.Unlock()
	caller.dropModified([]wire.LongPtr{y})
	if a, b := set(caller, 71), set(caller, 72); !slices.Equal(a, []wire.LongPtr{x}) || !slices.Equal(b, []wire.LongPtr{z}) {
		t.Errorf("after freeing %v the sets are %v and %v, want [%v] and [%v]", y, a, b, x, z)
	}
	caller.clearModified(71)
	if a, b := set(caller, 71), set(caller, 72); len(a) != 0 || !slices.Equal(b, []wire.LongPtr{z}) {
		t.Errorf("after session 71's teardown the sets are %v and %v, want none and [%v]", a, b, z)
	}
	caller.clearAllModified()
}

const (
	chunkType types.ID = 8
	chunkBuf           = 4096
	chunks             = 8
)

// chunkPair builds an owner holding a chain of eight Chunk{next; buf
// [4096]uint8} — each two cache pages long — and a worker that can
// scribble on them. Both ship full (DisableDeltaShip), so a frame built
// and not sent leaves no edge behind.
func chunkPair(t testing.TB) (owner, worker *Runtime, head Value) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	reg.MustRegister(&types.Desc{
		ID:   chunkType,
		Name: "Chunk",
		Fields: []types.Field{
			{Name: "next", Kind: types.Ptr, Elem: chunkType},
			{Name: "buf", Kind: types.Uint8, Count: chunkBuf},
		},
	})
	mk := func(id uint32) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: id, Node: node, Registry: reg, DisableDeltaShip: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	owner, worker = mk(1), mk(2)
	head = NullPtr(chunkType)
	for i := 0; i < chunks; i++ {
		v, err := owner.NewObject(chunkType)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := owner.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("next", 0, head); err != nil {
			t.Fatal(err)
		}
		head = v
	}
	return owner, worker, head
}

// scribble writes v at buf[idx] of every chunk from head on, for each idx.
func scribble(rt *Runtime, head Value, v uint64, idx ...int) error {
	for c := head; !c.IsNullPtr(); {
		ref, err := rt.Deref(c)
		if err != nil {
			return err
		}
		for _, i := range idx {
			if err := ref.SetUint("buf", i, v); err != nil {
				return err
			}
		}
		if c, err = ref.Ptr("next", 0); err != nil {
			return err
		}
	}
	return nil
}

// mallocsOf counts the heap allocations of one call of f.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// transferItems builds rt's CALL/RETURN frame to peer without sending it,
// counting the allocations that takes, and reads its items back; sized
// reports that the frame was sized exactly, once: it never grew.
func transferItems(rt *Runtime, peer uint32) (items []wire.DataItem, sized bool, mallocs uint64, err error) {
	var out []byte
	mallocs = mallocsOf(func() { out, err = rt.buildTransferPayload(rt.Session(), peer, nil) })
	if err != nil {
		return nil, false, mallocs, err
	}
	f, err := wire.ReadCallPayload(out)
	return readItems(f.Items), cap(out) == len(out), mallocs, err
}

// TestModifiedSetEncodesIntoOneArena: both halves of the modified data set
// size the frame they are encoded into from the canonical sizes of what
// they are about to encode — not from the 16-byte tree node — so 4 KiB
// data cost the same few allocations as small ones; and a datum spanning
// pages is collected once, whichever of its pages are dirty.
func TestModifiedSetEncodesIntoOneArena(t *testing.T) {
	owner, worker, head := chunkPair(t)
	var collected [][]wire.DataItem
	var mallocs []uint64
	var sized []bool
	collect := func(rt *Runtime) error {
		items, ok, n, err := transferItems(rt, 1)
		collected, sized, mallocs = append(collected, items), append(sized, ok), append(mallocs, n)
		return err
	}
	err := worker.Register("scribble", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		// Dirty on the last page only, then on both pages, then on the
		// first only: eight items each time, never sixteen.
		for _, idx := range [][]int{{chunkBuf - 1}, {0, chunkBuf - 1}, {0}} {
			if err := scribble(rt, args[0], uint64(len(collected)+1), idx...); err != nil {
				return nil, err
			}
			if err := collect(rt); err != nil {
				return nil, err
			}
		}
		// Something for the RETURN to carry home.
		return nil, scribble(rt, args[0], 7, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Call(2, "scribble", []Value{head}); err != nil {
		t.Fatal(err)
	}
	if len(collected) != 3 {
		t.Fatalf("%d collections ran, want 3", len(collected))
	}
	for i, items := range collected {
		seen := map[wire.LongPtr]bool{}
		for _, it := range items {
			seen[it.LP] = true
		}
		if len(items) != chunks || len(seen) != chunks {
			t.Errorf("collection %d: %d items for %d distinct data, want %d of each", i, len(items), len(seen), chunks)
		}
		if !sized[i] {
			t.Errorf("collection %d: the frame was not sized once", i)
		}
		// The dirty-page list, the participant set, the encoder and its
		// buffer, with room for the visitor closures — none for a
		// growing frame, and nothing per item.
		if mallocs[i] > 8 {
			t.Errorf("collection %d: %d allocations for %d items of %d bytes, want at most 8", i, mallocs[i], chunks, chunkBuf)
		}
	}

	// The circulating half, at the origin: the RETURN brought all eight home.
	items, sizedOnce, _, err := transferItems(owner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != chunks || !sizedOnce {
		t.Errorf("modified set: %d items, sized once = %v; want %d in one frame sized once", len(items), sizedOnce, chunks)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := owner.buildTransferPayload(owner.Session(), 2, nil); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("a frame carrying %d items of %d bytes allocates %v times, want at most 3 (participants, encoder, frame)", chunks, chunkBuf, n)
	}
	if err := owner.EndSession(); err != nil {
		t.Fatal(err)
	}
	ref, err := owner.Deref(head)
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range map[int]uint64{chunkBuf - 1: 2, 0: 3, 5: 7} {
		if got, err := ref.Uint("buf", idx); err != nil || got != want {
			t.Errorf("buf[%d] at home = %d, %v; want %d", idx, got, err, want)
		}
	}
}

// TestReplayedReturnIsTheRetainedReply: the replay cache keeps the RETURN's
// own buffer, not a copy. A retried CALL whose first RETURN was lost gets
// the same bytes back after the callee has gone on to build and send other
// payloads, and the handler does not run again.
func TestReplayedReturnIsTheRetainedReply(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	callee := newRuntimeOnNet(t, net, 2)
	tree := buildTree(t, callee, 3)
	leaf := encodeLocalObject(t, callee, buildTree(t, callee, 1))
	var runs atomic.Int32
	err = callee.Register("tree", func(*Ctx, []Value) ([]Value, error) {
		runs.Add(1)
		return []Value{tree}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := rawAttach(t, net, 7)
	recv := func(kind wire.Kind) wire.Message {
		t.Helper()
		m, err := raw.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != kind || m.Err != "" {
			t.Fatalf("received %v (err %q), want %v", m.Kind, m.Err, kind)
		}
		return m
	}
	const sess = 0x700000001
	// The CALL carries a dirty datum of the caller's, so the RETURN has the
	// modified data set to bring back as well as the result.
	mine := wire.LongPtr{Space: 7, Addr: 0x5000, Type: nodeType}
	cp := wire.CallPayload{Items: []wire.DataItem{{LP: mine, Dirty: true, Bytes: leaf}}, Parts: []uint32{7}}
	call := wire.Message{Kind: wire.KindCall, Session: sess, Seq: wire.SeqWithAttempt(9, 0), From: 7, To: 2, Proc: "tree", Payload: cp.Encode()}
	if err := raw.Send(sealed(call)); err != nil {
		t.Fatal(err)
	}
	first := recv(wire.KindReturn) // "lost": the caller keeps only what it saw on the wire
	want := slices.Clone(first.Payload)
	rp, err := wire.DecodeCallPayload(want)
	if err != nil || len(rp.Args) != 1 || len(rp.Items) != 1 || rp.Items[0].LP != mine {
		t.Fatalf("first RETURN decodes to %+v, %v; want one result and the caller's datum", rp, err)
	}

	// The callee serves on: a FETCH of the returned tree builds and sends
	// another payload.
	fp := wire.FetchPayload{Wants: []wire.LongPtr{tree.LP}, Budget: 1 << 16}
	fetch := wire.Message{Kind: wire.KindFetch, Session: sess, Seq: wire.SeqWithAttempt(10, 0), From: 7, To: 2, Payload: fp.Encode()}
	if err := raw.Send(sealed(fetch)); err != nil {
		t.Fatal(err)
	}
	if fr, err := wire.DecodeItemsPayload(recv(wire.KindFetchReply).Payload); err != nil || len(fr.Items) != 7 {
		t.Fatalf("FETCH reply holds %d items, %v; want the 7-node tree", len(fr.Items), err)
	}

	retry := call
	retry.Seq = wire.SeqWithAttempt(9, 1)
	if err := raw.Send(sealed(retry)); err != nil {
		t.Fatal(err)
	}
	second := recv(wire.KindReturn)
	if second.Seq != retry.Seq {
		t.Errorf("replayed RETURN answers seq %#x, want the retry's %#x", second.Seq, retry.Seq)
	}
	if !bytes.Equal(second.Payload, want) {
		t.Errorf("replayed RETURN differs from the first:\n got %x\nwant %x", second.Payload, want)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1", n)
	}
	if got := callee.Stats().DedupReplays; got != 1 {
		t.Errorf("DedupReplays = %d, want 1", got)
	}
	callee.AbortSession()
}

// returnModifiedSetup prepares one RETURN that carries the paper's whole
// tree home modified — 32 767 resident 16-byte nodes, all written. prep
// rewrites every node and clears the edge's history, so each crossing is
// the first data-carrying one of its edge, as in a single-call session;
// cross is the callee's buildTransferPayload and encode, then the
// caller's decode and installItems.
func returnModifiedSetup(t testing.TB) (prep func(i int), cross func()) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	const levels, nodes = 15, 1<<15 - 1
	root := buildTree(t, caller, levels)
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = caller.EndSession() })
	sess := caller.Session()
	if _, err := caller.Call(2, "sumTree", []Value{root}); err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for _, e := range callee.table.Entries() {
		v, err := callee.ImportPtr(e.LP)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := callee.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if len(refs) != nodes {
		t.Fatalf("callee holds %d nodes, want %d", len(refs), nodes)
	}
	prep = func(i int) {
		for _, ref := range refs {
			if err := ref.SetInt("data", 0, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		callee.coh.clearSession(sess)
		caller.coh.clearSession(sess)
		caller.clearModified(sess)
	}
	cross = func() {
		out, err := callee.buildTransferPayload(sess, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := wire.ReadCallPayload(out)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Items.Len() != nodes {
			t.Fatalf("RETURN carries %d items, want %d", rp.Items.Len(), nodes)
		}
		if err := caller.installItems(2, sess, rp.Items, pathCoh); err != nil {
			t.Fatal(err)
		}
	}
	return prep, cross
}

// TestReturnModifiedSetAllocs is the modified-set crossing's allocation
// gate. A crossing indexes nothing — no ship-state map, no modified-set
// map, no touched map, no copy of the table — and its items live in the
// frame alone, so it costs the frame, the home set and a few fixed
// allocations: measured 12 allocations and 2.10 MB (17 and 6.29 MB while
// an item vector and an encode arena stood beside the frame on each side;
// 785 and 32.9 MB with the four per-datum maps). The ceilings sit at about
// twice the measured figures: an item vector does not fit under them.
func TestReturnModifiedSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("crosses the 32767-node tree")
	}
	prep, cross := returnModifiedSetup(t)
	const runs = 5
	var allocs, allocBytes uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		prep(i)
		runtime.ReadMemStats(&before)
		cross()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	allocs, allocBytes = allocs/runs, allocBytes/runs
	if allocs > 26 || allocBytes > 4_200_000 {
		t.Errorf("a modified-set crossing allocates %d times and %d B; ceilings 26 and 4 200 000", allocs, allocBytes)
	}
	t.Logf("modified-set crossing: %d allocs, %d B", allocs, allocBytes)
}

// BenchmarkReturnModifiedSet measures one RETURN that carries the paper's
// whole tree home modified (returnModifiedSetup).
func BenchmarkReturnModifiedSet(b *testing.B) {
	prep, cross := returnModifiedSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prep(i)
		b.StartTimer()
		cross()
	}
	b.StopTimer()
}
