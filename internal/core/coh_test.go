package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"smartrpc/internal/delta"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// cohPhase samples the traffic of one scenario phase: message and wire
// byte counts by kind from the network, plus each runtime's coherency
// counters (indexed A=0, B=1, C=2).
type cohPhase struct {
	calls, rets, fetches, freplies uint64
	callBytes, retBytes            uint64
	shipped, deltas, skipped       [3]uint64
	itemBytes                      [3]uint64
}

// cohChainRun is the complete sampled outcome of the three-space
// scenario.
type cohChainRun struct {
	phases   [3]cohPhase  // bump, bump, peek
	writeBck uint64       // write-back messages at session end
	invals   uint64       // invalidations at session end
	reads    [2]int64     // what space C observed per bump
	final    int64        // A's heap value after EndSession
	enc      [3][]byte    // canonical node encodings v1..v3
	lp       wire.LongPtr // the datum's identity
}

// encodeLocalObject returns the canonical encoding of a locally owned
// object, exactly as the coherency path would ship it.
func encodeLocalObject(t testing.TB, rt *Runtime, v Value) []byte {
	t.Helper()
	rv, err := rt.res.Resolve(v.LP.Type)
	if err != nil {
		t.Fatal(err)
	}
	enc := xdr.NewEncoder(0)
	if err := encodeObjectInto(enc, rt.space, rt.table, rv, v.Addr); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// runCohChain drives the pinned scenario on a fresh three-space network:
// a single node owned by A travels A→B on a call, B→C on a nested call,
// and C→B on a callback, twice with an in-place modification at B (so
// bytes change between crossings) and once read-only (so nothing changes
// between crossings). Phase boundaries are quiescent — Call is
// synchronous and nested activity completes before it returns — so the
// per-phase samples are deterministic.
func runCohChain(t *testing.T, disable bool) cohChainRun {
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
		rt, err := New(Options{ID: id, Node: node, Registry: reg, DisableDeltaShip: disable})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	a, b, c := mk(1), mk(2), mk(3)
	rts := []*Runtime{a, b, c}

	// C's callback target on B: touch the pointer so the datum keeps
	// circulating over the C→B edge too.
	err = b.Register("echo", func(ctx *Ctx, args []Value) ([]Value, error) {
		return args, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// C reads the node and calls back into B before returning.
	err = c.Register("read", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		if _, err := ctx.Call(2, "echo", args); err != nil {
			return nil, err
		}
		return []Value{Int64Value(v)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// B bumps the node in place, then forwards it to C.
	err = b.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, d+1); err != nil {
			return nil, err
		}
		return ctx.Call(3, "read", args)
	})
	if err != nil {
		t.Fatal(err)
	}
	// B reads without modifying: the no-change-since-last-crossing phase.
	err = b.Register("peek", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(v)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	root := buildTree(t, a, 1) // one node, data = 1
	var run cohChainRun
	run.lp = root.LP
	run.enc[0] = encodeLocalObject(t, a, root)

	stats := net.Stats()
	sample := func() cohPhase {
		p := cohPhase{
			calls:     stats.KindMessages(uint32(wire.KindCall)),
			rets:      stats.KindMessages(uint32(wire.KindReturn)),
			fetches:   stats.KindMessages(uint32(wire.KindFetch)),
			freplies:  stats.KindMessages(uint32(wire.KindFetchReply)),
			callBytes: stats.KindBytes(uint32(wire.KindCall)),
			retBytes:  stats.KindBytes(uint32(wire.KindReturn)),
		}
		for i, rt := range rts {
			st := rt.Stats()
			p.shipped[i] = st.CohItemsShipped
			p.deltas[i] = st.CohDeltaItems
			p.skipped[i] = st.CohItemsSkipped
			p.itemBytes[i] = st.CohItemBytes
		}
		return p
	}
	diff := func(before, after cohPhase) cohPhase {
		d := cohPhase{
			calls: after.calls - before.calls, rets: after.rets - before.rets,
			fetches: after.fetches - before.fetches, freplies: after.freplies - before.freplies,
			callBytes: after.callBytes - before.callBytes, retBytes: after.retBytes - before.retBytes,
		}
		for i := range d.shipped {
			d.shipped[i] = after.shipped[i] - before.shipped[i]
			d.deltas[i] = after.deltas[i] - before.deltas[i]
			d.skipped[i] = after.skipped[i] - before.skipped[i]
			d.itemBytes[i] = after.itemBytes[i] - before.itemBytes[i]
		}
		return d
	}

	if err := a.BeginSession(); err != nil {
		t.Fatal(err)
	}
	before := sample()
	for i, proc := range []string{"bump", "bump", "peek"} {
		res, err := a.Call(2, proc, []Value{root})
		if err != nil {
			t.Fatalf("call %d (%s): %v", i, proc, err)
		}
		if i < 2 {
			run.reads[i] = res[0].Int64()
			run.enc[i+1] = encodeLocalObject(t, a, root)
		}
		after := sample()
		run.phases[i] = diff(before, after)
		before = after
	}
	if err := a.EndSession(); err != nil {
		t.Fatal(err)
	}
	run.writeBck = stats.KindMessages(uint32(wire.KindWriteBack))
	run.invals = stats.KindMessages(uint32(wire.KindInvalidate))
	ref, err := a.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	run.final, err = ref.Int("data", 0)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestNestedCallbackCrossingCounts pins the exact message and byte
// counts of every boundary crossing in a three-space call/callback chain
// (A calls B, B calls C, C calls back into B), under delta shipping and
// under the full-shipping ablation. The no-change-since-last-crossing
// phase must move zero coherency item bytes while the item's dirty
// obligation still crosses as a token.
func TestNestedCallbackCrossingCounts(t *testing.T) {
	ds := runCohChain(t, false) // delta shipping on
	fs := runCohChain(t, true)  // full-shipping ablation

	for _, run := range []struct {
		name string
		r    cohChainRun
	}{{"delta", ds}, {"fullship", fs}} {
		r := run.r
		// Correctness first: both protocols must agree on the values.
		if r.reads != [2]int64{2, 3} || r.final != 3 {
			t.Fatalf("%s: reads=%v final=%d, want [2 3] and 3", run.name, r.reads, r.final)
		}
		// Message counts per phase are protocol-independent: delta
		// shipping shrinks payloads, never adds or removes messages.
		// Phase 1 and 2 (bump): A→B call, one B→C nested call, one C→B
		// callback, and the three matching returns; only phase 1 faults
		// (one fetch against origin A). Phase 3 (peek): a single A↔B
		// round trip.
		wantMsgs := [3][4]uint64{
			{3, 3, 1, 1},
			{3, 3, 0, 0},
			{1, 1, 0, 0},
		}
		for i, p := range r.phases {
			got := [4]uint64{p.calls, p.rets, p.fetches, p.freplies}
			if got != wantMsgs[i] {
				t.Errorf("%s phase %d: calls/rets/fetches/freplies = %v, want %v", run.name, i, got, wantMsgs[i])
			}
		}
		if r.writeBck != 0 {
			// The origin received every modification on an earlier
			// crossing, so end-of-session write-back has nothing to send.
			t.Errorf("%s: %d write-back messages at session end, want 0", run.name, r.writeBck)
		}
		if r.invals != 2 {
			t.Errorf("%s: %d invalidations, want 2 (spaces B and C)", run.name, r.invals)
		}
	}

	full2 := uint64(len(ds.enc[1])) // canonical size after first bump
	full3 := uint64(len(ds.enc[2])) // after second bump
	if full2 == 0 || full2 != full3 {
		t.Fatalf("node encodings: %d and %d bytes, want equal and nonzero", full2, full3)
	}
	runs := delta.Diff(ds.enc[1], ds.enc[2], delta.DefaultGap)
	if runs == nil {
		t.Fatal("no byte-range diff between the two bump encodings")
	}
	dsz := uint64(delta.EncodedSize(runs))
	if dsz == 0 || dsz >= full3 {
		t.Fatalf("delta size %d vs full %d: delta must be the cheaper encoding here", dsz, full3)
	}

	// Coherency item accounting, exact per phase and per runtime.
	//
	// Delta shipping: phase 1 ships the changed node full on the two
	// first-exchange edges (B→C and B→A) and tokens everywhere the peer
	// is known current (C→B callback and both callback returns). Phase 2
	// re-ships the changed node as a byte-range delta on those same two
	// edges. Phase 3 changes nothing: every crossing is a token and the
	// coherency path moves ZERO item bytes.
	wantDS := [3]cohPhase{
		{shipped: [3]uint64{0, 2, 0}, deltas: [3]uint64{0, 0, 0}, skipped: [3]uint64{0, 1, 2}, itemBytes: [3]uint64{0, 2 * full2, 0}},
		{shipped: [3]uint64{0, 2, 0}, deltas: [3]uint64{0, 2, 0}, skipped: [3]uint64{1, 1, 2}, itemBytes: [3]uint64{0, 2 * dsz, 0}},
		{shipped: [3]uint64{0, 0, 0}, deltas: [3]uint64{0, 0, 0}, skipped: [3]uint64{1, 1, 0}, itemBytes: [3]uint64{0, 0, 0}},
	}
	// Full shipping re-encodes and re-transmits the complete body on
	// every crossing the item travels (§3.4): B ships it three times per
	// bump phase (nested call, callback return, return home), C twice
	// (callback, nested return), and A re-ships its circulating copy on
	// every later call.
	wantFS := [3]cohPhase{
		{shipped: [3]uint64{0, 3, 2}, itemBytes: [3]uint64{0, 3 * full2, 2 * full2}},
		{shipped: [3]uint64{1, 3, 2}, itemBytes: [3]uint64{full2, 3 * full3, 2 * full3}},
		{shipped: [3]uint64{1, 1, 0}, itemBytes: [3]uint64{full3, full3, 0}},
	}
	for i := range wantDS {
		got, want := ds.phases[i], wantDS[i]
		if got.shipped != want.shipped || got.deltas != want.deltas ||
			got.skipped != want.skipped || got.itemBytes != want.itemBytes {
			t.Errorf("delta phase %d: shipped=%v deltas=%v skipped=%v itemBytes=%v,\nwant shipped=%v deltas=%v skipped=%v itemBytes=%v",
				i, got.shipped, got.deltas, got.skipped, got.itemBytes,
				want.shipped, want.deltas, want.skipped, want.itemBytes)
		}
		got, want = fs.phases[i], wantFS[i]
		if got.shipped != want.shipped || got.deltas != want.deltas ||
			got.skipped != want.skipped || got.itemBytes != want.itemBytes {
			t.Errorf("fullship phase %d: shipped=%v deltas=%v skipped=%v itemBytes=%v,\nwant shipped=%v deltas=%v skipped=%v itemBytes=%v",
				i, got.shipped, got.deltas, got.skipped, got.itemBytes,
				want.shipped, want.deltas, want.skipped, want.itemBytes)
		}
	}

	// Wire-level byte counts, exact: the two runs carry identical
	// messages except where a full item body became a token or a delta,
	// so each phase's Call/Return byte gap is the sum of the per-item
	// encoding differences, computed from the real wire encoder.
	itemWire := func(it wire.DataItem) uint64 {
		p := wire.ItemsPayload{Items: []wire.DataItem{it}}
		return uint64(len(p.Encode()))
	}
	fullIt := itemWire(wire.DataItem{LP: ds.lp, Dirty: true, Bytes: ds.enc[1]})
	tokIt := itemWire(wire.DataItem{LP: ds.lp, Dirty: true, Delta: true, BaseVer: 1})
	deltIt := itemWire(wire.DataItem{LP: ds.lp, Dirty: true, Delta: true, BaseVer: 1, Bytes: delta.Encode(runs)})
	dTok := fullIt - tokIt    // bytes saved when a full body becomes a token
	dDelta := fullIt - deltIt // bytes saved when it becomes a range delta

	wantGap := [3][2]uint64{
		// phase 1: calls save one token (C→B callback); returns save two
		// (both callback returns).
		{dTok, 2 * dTok},
		// phase 2: calls save a token on A→B, a delta on B→C, and a token
		// on C→B; returns save two tokens and the B→A delta.
		{2*dTok + dDelta, 2*dTok + dDelta},
		// phase 3: one token each way.
		{dTok, dTok},
	}
	for i := range wantGap {
		callGap := fs.phases[i].callBytes - ds.phases[i].callBytes
		retGap := fs.phases[i].retBytes - ds.phases[i].retBytes
		if callGap != wantGap[i][0] || retGap != wantGap[i][1] {
			t.Errorf("phase %d wire gap: call=%d return=%d, want call=%d return=%d",
				i, callGap, retGap, wantGap[i][0], wantGap[i][1])
		}
	}
}

// --- the ship state against its reference model ---

// refShipState is the specification of an edge's ship state: the map the
// runtime used to maintain eagerly, one insert per item per crossing. The
// log-and-fold implementation must produce the same surviving items on every
// crossing and hold the same versions whenever it is made to look.
type refShipState map[wire.LongPtr]cohView

// refCounts mirrors the four coherency counters of Stats.
type refCounts struct{ shipped, skipped, deltas, bytes uint64 }

func (views refShipState) ship(items []wire.DataItem, final bool, n *refCounts) []wire.DataItem {
	var out []wire.DataItem
	for _, it := range items {
		v, ok := views[it.LP]
		if !ok {
			views[it.LP] = cohView{ver: 1, bytes: it.Bytes}
			n.shipped++
			n.bytes += uint64(len(it.Bytes))
			out = append(out, it)
			continue
		}
		if bytes.Equal(v.bytes, it.Bytes) {
			n.skipped++
			if final {
				continue
			}
			out = append(out, wire.DataItem{LP: it.LP, Dirty: it.Dirty, Delta: true, BaseVer: v.ver})
			v.ver++
			views[it.LP] = v
			continue
		}
		runs := delta.Diff(v.bytes, it.Bytes, delta.DefaultGap)
		if runs != nil && 4+pad4(delta.EncodedSize(runs)) < pad4(len(it.Bytes)) {
			out = append(out, wire.DataItem{LP: it.LP, Dirty: it.Dirty, Delta: true, BaseVer: v.ver, Bytes: delta.Encode(runs)})
			n.deltas++
			n.bytes += uint64(delta.EncodedSize(runs))
		} else {
			n.bytes += uint64(len(it.Bytes))
			out = append(out, it)
		}
		n.shipped++
		views[it.LP] = cohView{ver: v.ver + 1, bytes: it.Bytes}
	}
	return out
}

func (views refShipState) receive(it wire.DataItem) (full []byte, fresh bool, err error) {
	v, ok := views[it.LP]
	if !it.Delta {
		views[it.LP] = cohView{ver: v.ver + 1, bytes: it.Bytes}
		return it.Bytes, true, nil
	}
	if !ok || v.ver != it.BaseVer {
		return nil, false, fmt.Errorf("reference: delta for %v at version %d, have %d (%v)", it.LP, it.BaseVer, v.ver, ok)
	}
	if len(it.Bytes) == 0 {
		v.ver++
		views[it.LP] = v
		return v.bytes, false, nil
	}
	runs, err := delta.Decode(it.Bytes)
	if err != nil {
		return nil, false, err
	}
	patched, err := delta.Apply(v.bytes, runs)
	if err != nil {
		return nil, false, err
	}
	views[it.LP] = cohView{ver: v.ver + 1, bytes: patched}
	return patched, true, nil
}

// shipHarness drives one session's crossings between real runtimes and the
// reference side by side. It is confined to one goroutine; several may
// share runtimes (distinct sessions on a shared origin).
type shipHarness struct {
	rng  *rand.Rand
	sess uint64
	// value is each live datum's current canonical bytes: one thread of
	// control, so every space ships the same latest value.
	value map[wire.LongPtr][]byte
	live  []wire.LongPtr
	ref   map[[2]uint32]refShipState // (owner of the state, its peer)
	cnt   map[uint32]*refCounts
	// full makes every crossing a batch of full items: each batch carries
	// all live data, in order, each rewritten since the last.
	full bool
}

func newShipHarness(seed int64, sess uint64, origin uint32, data int) *shipHarness {
	h := &shipHarness{
		rng: rand.New(rand.NewSource(seed)), sess: sess,
		value: make(map[wire.LongPtr][]byte),
		ref:   make(map[[2]uint32]refShipState),
		cnt:   make(map[uint32]*refCounts),
	}
	for i := 0; i < data; i++ {
		lp := wire.LongPtr{Space: origin, Addr: vmem.VAddr(0x1000 + 0x400*i), Type: nodeType}
		body := make([]byte, 16<<uint(h.rng.Intn(6))) // 16 B .. 512 B
		h.rng.Read(body)
		h.value[lp] = body
		h.live = append(h.live, lp)
	}
	return h
}

func (h *shipHarness) edge(owner, peer uint32) refShipState {
	k := [2]uint32{owner, peer}
	if h.ref[k] == nil {
		h.ref[k] = make(refShipState)
	}
	return h.ref[k]
}

func (h *shipHarness) counts(id uint32) *refCounts {
	if h.cnt[id] == nil {
		h.cnt[id] = &refCounts{}
	}
	return h.cnt[id]
}

// mutate moves some data on between crossings: most stay as they are (the
// token case), some change a few bytes (the byte-range delta case), some
// are rewritten (full again), and now and then one is freed.
func (h *shipHarness) mutate() {
	for _, lp := range h.live {
		switch r := h.rng.Intn(10); {
		case h.full:
			b := make([]byte, len(h.value[lp]))
			h.rng.Read(b)
			h.value[lp] = b
		case r < 6:
		case r < 9:
			b := slices.Clone(h.value[lp])
			for k := 0; k <= h.rng.Intn(3); k++ {
				b[h.rng.Intn(len(b))] ^= byte(1 + h.rng.Intn(255))
			}
			h.value[lp] = b
		default:
			b := make([]byte, len(h.value[lp]))
			h.rng.Read(b)
			h.value[lp] = b
		}
	}
	if len(h.live) > 4 && !h.full && h.rng.Intn(8) == 0 {
		i := h.rng.Intn(len(h.live))
		delete(h.value, h.live[i])
		h.live = slices.Delete(h.live, i, i+1)
	}
}

// batch draws distinct live data in random order.
func (h *shipHarness) batch() []wire.DataItem {
	var items []wire.DataItem
	if h.full {
		for _, lp := range h.live {
			items = append(items, wire.DataItem{LP: lp, Dirty: true, Bytes: h.value[lp]})
		}
		return items
	}
	for _, i := range h.rng.Perm(len(h.live))[:h.rng.Intn(len(h.live)+1)] {
		lp := h.live[i]
		items = append(items, wire.DataItem{LP: lp, Dirty: h.rng.Intn(2) == 0, Bytes: h.value[lp]})
	}
	return items
}

func sameItems(a, b []wire.DataItem) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d items, reference has %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.LP != y.LP || x.Dirty != y.Dirty || x.Delta != y.Delta || x.BaseVer != y.BaseVer || !bytes.Equal(x.Bytes, y.Bytes) {
			return fmt.Errorf("item %d = {%v dirty=%v delta=%v base=%d %d bytes}, reference {%v dirty=%v delta=%v base=%d %d bytes}",
				i, x.LP, x.Dirty, x.Delta, x.BaseVer, len(x.Bytes), y.LP, y.Dirty, y.Delta, y.BaseVer, len(y.Bytes))
		}
	}
	return nil
}

// cross ships one crossing from x to y through a frame, each side beside
// the reference: x writes each batch into the frame's item vector through
// its ship state, and y reads the frame as it arrives, admits it and
// resolves its items. closure adds a second batch on the same crossing
// that may repeat data of the first, as an eager call's closure repeats
// the circulating set.
func (h *shipHarness) cross(x, y *Runtime, final, closure bool) error {
	var e xdr.Encoder
	w := wire.BeginItems(&e)
	ship := func(batch []wire.DataItem) []wire.DataItem {
		s := x.shipTo(&w, y.id, h.sess, final)
		for _, it := range batch {
			s.put(&w, it.LP, it.Dirty, it.Bytes)
		}
		s.close(&w)
		return h.edge(x.id, y.id).ship(batch, final, h.counts(x.id))
	}
	want := ship(h.batch())
	if closure {
		want = append(want, ship(h.batch())...)
	}
	w.End()
	fail := func(format string, args ...any) error {
		return fmt.Errorf("crossing %d->%d (final=%v closure=%v): %s", x.id, y.id, final, closure, fmt.Sprintf(format, args...))
	}
	items, err := wire.ReadItemsPayload(e.Bytes())
	if err != nil {
		return fail("the frame does not read back: %v", err)
	}
	if err := sameItems(readItems(items), want); err != nil {
		return fail("shipped %v", err)
	}
	resolve := y.cohAdmit(x.id, h.sess, items)
	for i := 0; items.Len() > 0; i++ {
		it, err := items.Next()
		if err != nil {
			return fail("item %d: %v", i, err)
		}
		full, fresh := it.Bytes, true
		if resolve {
			if full, fresh, err = y.cohResolve(x.id, h.sess, it); err != nil {
				return fail("item %d: %v", i, err)
			}
		}
		wfull, wfresh, err := h.edge(y.id, x.id).receive(it)
		if err != nil {
			return fail("item %d: %v", i, err)
		}
		if !bytes.Equal(full, wfull) || fresh != wfresh {
			return fail("item %d (%v) resolved to %d bytes fresh=%v, reference %d bytes fresh=%v",
				i, it.LP, len(full), fresh, len(wfull), wfresh)
		}
		if !bytes.Equal(full, h.value[it.LP]) {
			return fail("item %d (%v): resolved bytes are not the datum's current value", i, it.LP)
		}
	}
	return nil
}

// readItems reads the rest of r, a reader on a frame read back whole, into
// a slice.
func readItems(r wire.ItemReader) []wire.DataItem {
	var items []wire.DataItem
	for r.Len() > 0 {
		it, _ := r.Next()
		items = append(items, it)
	}
	return items
}

// itemFrame encodes items as a WRITEBACK or FETCH reply body and opens a
// reader on it, as a receiver does.
func itemFrame(t testing.TB, items ...wire.DataItem) wire.ItemReader {
	t.Helper()
	r, err := wire.ReadItemsPayload((&wire.ItemsPayload{Items: items}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkFolded forces a fold of rt's edge to peer and compares every
// version and baseline with the reference.
func (h *shipHarness) checkFolded(rt *Runtime, peer uint32) error {
	want := h.ref[[2]uint32{rt.id, peer}]
	rt.coh.mu.Lock()
	defer rt.coh.mu.Unlock()
	p := rt.coh.peers[peer]
	if p == nil {
		if len(want) != 0 {
			return fmt.Errorf("space %d has no edge to %d; reference holds %d views", rt.id, peer, len(want))
		}
		return nil
	}
	p.fold()
	if p.sess != h.sess || len(p.index) != len(want) {
		return fmt.Errorf("space %d edge to %d: session %#x with %d views, want %#x with %d", rt.id, peer, p.sess, len(p.index), h.sess, len(want))
	}
	for lp, w := range want {
		if g := p.index[lp]; g.ver != w.ver || !bytes.Equal(g.bytes, w.bytes) {
			return fmt.Errorf("space %d edge to %d, %v: version %d (%d bytes), reference %d (%d bytes)",
				rt.id, peer, lp, g.ver, len(g.bytes), w.ver, len(w.bytes))
		}
	}
	return nil
}

// lockstep is the look at a quiescent point: CheckCohLockstep over the
// pair, then both ends against the reference.
func (h *shipHarness) lockstep(x, y *Runtime) error {
	if err := CheckCohLockstep(x, y); err != nil {
		return err
	}
	if err := h.checkFolded(x, y.id); err != nil {
		return err
	}
	return h.checkFolded(y, x.id)
}

func (h *shipHarness) checkCounters(t *testing.T, rts ...*Runtime) {
	t.Helper()
	for _, rt := range rts {
		st, want := rt.Stats(), *h.counts(rt.id)
		got := refCounts{st.CohItemsShipped, st.CohItemsSkipped, st.CohDeltaItems, st.CohItemBytes}
		if got != want {
			t.Errorf("space %d counters shipped/skipped/deltas/bytes = %+v, reference %+v", rt.id, got, want)
		}
	}
}

func cohTrio(t *testing.T) (a, b, c *Runtime) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	return newRuntimeOnNet(t, net, 1), newRuntimeOnNet(t, net, 2), newRuntimeOnNet(t, net, 3)
}

// TestShipStateMatchesEagerReference drives seeded random crossing
// sequences over a three-space chain — A calls B, B calls C, and back,
// again and again, with data unchanged (tokens), nudged (byte-range
// deltas), rewritten (full) or freed between crossings, closures repeating
// the batch before them, and final write-backs that drop what the origin
// holds — through the log-and-fold ship state and the eager reference map,
// and requires identical surviving items on every crossing, identical
// versions whenever a fold is forced, identical counters, and lockstep at
// every quiescent point looked at. Most crossings are not looked at, so
// what the edges defer stays deferred.
func TestShipStateMatchesEagerReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		a, b, c := cohTrio(t)
		h := newShipHarness(seed, 0x100000000|uint64(seed), a.id, 24)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for round := 0; round < 12; round++ {
			for _, hop := range [][2]*Runtime{{a, b}, {b, c}, {c, b}, {b, a}} {
				h.mutate()
				must(h.cross(hop[0], hop[1], false, h.rng.Intn(4) == 0))
				if h.rng.Intn(5) == 0 {
					must(h.lockstep(hop[0], hop[1])) // a quiescent point somebody looks at
				}
			}
			if h.rng.Intn(3) == 0 {
				// The ablation's write-back of the moment: C sends home.
				h.mutate()
				must(h.cross(c, a, true, false))
			}
		}
		// Session end: the ground's final write-backs, then everything is
		// looked at.
		must(h.cross(a, b, true, false))
		must(h.lockstep(a, b))
		must(h.lockstep(b, c))
		must(h.lockstep(a, c))
		h.checkCounters(t, a, b, c)
		for _, rt := range []*Runtime{a, b, c} {
			rt.coh.clearSession(h.sess)
			must(rt.CheckIdleInvariants())
		}
	}
}

// TestShipStateFoldsOverflowingTail: a receiver that is handed batch after
// batch of full items and never has to look anything up folds its tail
// once the tail passes foldLogMax items — readers on frames, decoded only
// then — and the index it folds is the reference's, which the token and
// delta crossings after it patch against.
func TestShipStateFoldsOverflowingTail(t *testing.T) {
	if testing.Short() {
		t.Skip("logs more than foldLogMax items")
	}
	a, b, _ := cohTrio(t)
	const data, crossings = foldLogMax/8 + 1, 8
	h := newShipHarness(3, 0x100000003, a.id, data)
	for _, lp := range h.live {
		h.value[lp] = h.value[lp][:16]
	}
	h.full = true
	logged := func() (n int, folded bool) {
		b.coh.mu.Lock()
		defer b.coh.mu.Unlock()
		p := b.coh.peers[a.id]
		return p.logged, p.index != nil
	}
	for i := 1; i <= crossings; i++ {
		h.mutate()
		if err := h.cross(a, b, false, false); err != nil {
			t.Fatalf("crossing %d: %v", i, err)
		}
		n, folded := logged()
		switch {
		case i < crossings && (n != i*data || folded):
			t.Fatalf("after %d full crossings the receiver's tail holds %d items (folded=%v), want %d unfolded", i, n, folded, i*data)
		case i == crossings && (n != 0 || !folded):
			t.Fatalf("after %d full crossings (%d items, over %d) the tail holds %d items (folded=%v), want it folded", i, i*data, foldLogMax, n, folded)
		}
	}
	h.full = false
	for round := 0; round < 3; round++ {
		for _, hop := range [][2]*Runtime{{a, b}, {b, a}} {
			h.mutate()
			if err := h.cross(hop[0], hop[1], false, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.lockstep(a, b); err != nil {
		t.Fatal(err)
	}
	h.checkCounters(t, a, b)
}

// pooledRanges records the span of every pooled frame a node delivers and
// keeps the frame referenced, so no span is recycled while it is checked.
type pooledRanges struct {
	transport.Node
	mu    sync.Mutex
	spans [][2]uintptr
	held  []*wire.FrameBuf
}

func (p *pooledRanges) Recv() (wire.Message, error) {
	m, err := p.Node.Recv()
	if err == nil && m.Frame != nil && cap(m.Payload) > 0 {
		m.Frame.Retain()
		start := uintptr(unsafe.Pointer(unsafe.SliceData(m.Payload)))
		p.mu.Lock()
		p.spans = append(p.spans, [2]uintptr{start, start + uintptr(cap(m.Payload))})
		p.held = append(p.held, m.Frame)
		p.mu.Unlock()
	}
	return m, err
}

// holds reports whether b lies in a pooled frame p delivered.
func (p *pooledRanges) holds(b []byte) bool {
	if cap(b) == 0 {
		return false
	}
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sp := range p.spans {
		if sp[0] <= at && at < sp[1] {
			return true
		}
	}
	return false
}

// TestShipLogKeepsNoPooledFrame: an edge's ship state keeps the frames its
// items crossed in, so it may keep only coherency-path payloads, which
// wire.ReadFrame copies out — never a FETCH reply's pooled Message.Frame,
// which returns to its pool to be overwritten once installed. Over two TCP
// nodes, one session bumps a tree back and forth: each CALL carries the
// circulating set back as tokens, each RETURN the bumps as deltas, and
// each call also faults in a fresh subtree, so pooled frames arrive
// between the crossings. No baseline on either side lies in a pooled
// frame, the edge is in lockstep, and the tree at home holds every bump.
func TestShipLogKeepsNoPooledFrame(t *testing.T) {
	reg := newTestRegistry(t)
	pooled := map[uint32]*pooledRanges{}
	// The callee listens on a port of its own choosing and learns the
	// caller's address from the caller's first frame.
	mk := func(id uint32, book map[uint32]string) (*Runtime, string) {
		node, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		pooled[id] = &pooledRanges{Node: node}
		rt, err := New(Options{ID: id, Node: pooled[id], Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = rt.Close()
			for _, fb := range pooled[id].held {
				fb.Release()
			}
		})
		return rt, node.Addr()
	}
	callee, addr := mk(1, nil)
	caller, _ := mk(2, map[uint32]string{1: addr})
	const bumped, rounds = 6, 8
	tree, other := buildTree(t, caller, bumped), buildTree(t, caller, 12)
	err := callee.Register("bumpAndRead", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		if err := bumpTree(rt, args[0]); err != nil {
			return nil, err
		}
		// Walk to the round's depth-3 subtree of the other tree and sum it:
		// a part of it no earlier round faulted in.
		sub, r := args[1], args[2].Int64()
		for i := 0; i < 3; i++ {
			ref, err := rt.Deref(sub)
			if err != nil {
				return nil, err
			}
			if sub, err = ref.Ptr([2]string{"left", "right"}[r>>i&1], 0); err != nil {
				return nil, err
			}
		}
		s, err := sumTree(rt, sub)
		return []Value{Int64Value(s)}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := caller.Call(1, "bumpAndRead", []Value{tree, other, Int64Value(int64(r))}); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if err := CheckCohLockstep(caller, callee); err != nil {
		t.Fatal(err)
	}
	if st := callee.Stats(); st.CohDeltaItems == 0 || st.CohItemsSkipped == 0 || len(pooled[1].spans) == 0 {
		t.Fatalf("callee shipped %d deltas and skipped %d items, and received %d pooled frames; want each nonzero",
			st.CohDeltaItems, st.CohItemsSkipped, len(pooled[1].spans))
	}
	for _, rt := range []*Runtime{caller, callee} {
		rt.coh.mu.Lock()
		for peer, p := range rt.coh.peers {
			for lp, v := range p.index { // folded by CheckCohLockstep
				if pooled[rt.id].holds(v.bytes) {
					t.Errorf("space %d's baseline of %v for space %d lies in a pooled frame", rt.id, lp, peer)
				}
			}
		}
		rt.coh.mu.Unlock()
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	if got, err := sumTree(caller, tree); err != nil || got != wantSum(bumped)+rounds*(1<<bumped-1) {
		t.Errorf("tree at home sums to %d, %v; want %d", got, err, wantSum(bumped)+rounds*(1<<bumped-1))
	}
}

// TestShipStateConcurrentSessionsOnSharedOrigin: two clients run their own
// sessions against one origin at once. Each edge on the origin belongs to
// one of them; one session's teardown there leaves the other's baselines
// alone. Run with -race.
func TestShipStateConcurrentSessionsOnSharedOrigin(t *testing.T) {
	a, origin, c := cohTrio(t)
	clients := []*Runtime{a, c}
	hs := make([]*shipHarness, len(clients))
	var wg sync.WaitGroup
	for i, client := range clients {
		hs[i] = newShipHarness(int64(40+i), uint64(client.id)<<32|7, origin.id, 16)
		wg.Add(1)
		go func(h *shipHarness, client *Runtime) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				h.mutate()
				err := h.cross(client, origin, false, false)
				if err == nil {
					h.mutate()
					err = h.cross(origin, client, false, round%5 == 0)
				}
				if err != nil {
					t.Errorf("client %d round %d: %v", client.id, round, err)
					return
				}
			}
		}(hs[i], client)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, client := range clients {
		if err := hs[i].lockstep(client, origin); err != nil {
			t.Fatal(err)
		}
	}
	// A's session ends at the origin; C's next crossings still patch
	// against their baselines.
	origin.coh.clearSession(hs[0].sess)
	a.coh.clearSession(hs[0].sess)
	for round := 0; round < 5; round++ {
		hs[1].mutate()
		if err := hs[1].cross(c, origin, false, false); err != nil {
			t.Fatal(err)
		}
		if err := hs[1].cross(origin, c, round == 4, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs[1].lockstep(c, origin); err != nil {
		t.Fatal(err)
	}
}

// TestShipStateRejectsBrokenStreams: what a lost, duplicated or forged
// frame looks like to the receiver is still an error, not silent
// corruption — also when the baseline it names is still sitting in the
// edge's unfolded tail.
func TestShipStateRejectsBrokenStreams(t *testing.T) {
	_, b, _ := cohTrio(t)
	const sess = 0x100000009
	lp := wire.LongPtr{Space: 1, Addr: 0x2000, Type: nodeType}
	other := wire.LongPtr{Space: 1, Addr: 0x2040, Type: nodeType}
	body := []byte("0123456789abcdef01234567")
	resolveAll := func(rt *Runtime, batch []wire.DataItem) error {
		items := itemFrame(t, batch...)
		if !rt.cohAdmit(1, sess, items) {
			return nil
		}
		for items.Len() > 0 {
			it, _ := items.Next()
			if _, _, err := rt.cohResolve(1, sess, it); err != nil {
				return err
			}
		}
		return nil
	}
	// A first, full crossing: logged, not indexed.
	if err := resolveAll(b, []wire.DataItem{{LP: lp, Dirty: true, Bytes: body}}); err != nil {
		t.Fatal(err)
	}
	b.coh.mu.Lock()
	if p := b.coh.peers[1]; p == nil || p.index != nil || p.logged != 1 {
		t.Errorf("after one full batch the edge is %+v, want one logged item and no index", p)
	}
	b.coh.mu.Unlock()
	err := resolveAll(b, []wire.DataItem{{LP: other, Delta: true, BaseVer: 1}})
	if err == nil || !strings.Contains(err.Error(), "without a baseline") {
		t.Errorf("delta for a datum never exchanged: err = %v, want \"without a baseline\"", err)
	}
	err = resolveAll(b, []wire.DataItem{{LP: lp, Delta: true, BaseVer: 2}})
	if err == nil || !strings.Contains(err.Error(), "patches version 2, have 1") {
		t.Errorf("token against the wrong version: err = %v, want a version mismatch", err)
	}
	// A batch mixing full, token and delta items resolves in order against
	// the folded index: the full item in front moves lp to version 2, which
	// is what the token behind it names.
	next := slices.Clone(body)
	next[3] ^= 0xff
	err = resolveAll(b, []wire.DataItem{
		{LP: lp, Bytes: next},
		{LP: other, Bytes: body},
		{LP: lp, Delta: true, BaseVer: 2},
		{LP: other, Delta: true, BaseVer: 1},
	})
	if err != nil {
		t.Errorf("mixed batch: %v", err)
	}
	b.coh.mu.Lock()
	if v := b.coh.peers[1].index[lp]; v.ver != 3 || !bytes.Equal(v.bytes, next) {
		t.Errorf("after the mixed batch %v is at version %d, want 3 with the new bytes", lp, v.ver)
	}
	b.coh.mu.Unlock()
	if err := b.installItems(1, sess, itemFrame(t, wire.DataItem{LP: lp, Delta: true, BaseVer: 3}), pathFetch); err == nil ||
		!strings.Contains(err.Error(), "outside the coherency path") {
		t.Errorf("delta item in a fetch reply: err = %v", err)
	}

	// The full-shipping ablation keeps no state and accepts no delta.
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Attach(5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Options{ID: 5, Node: node, Registry: newTestRegistry(t), DisableDeltaShip: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plain.Close() })
	if err := resolveAll(plain, []wire.DataItem{{LP: lp, Bytes: body}}); err != nil {
		t.Fatal(err)
	}
	err = resolveAll(plain, []wire.DataItem{{LP: lp, Bytes: body}, {LP: lp, Delta: true, BaseVer: 1}})
	if err == nil || !strings.Contains(err.Error(), "delta shipping disabled") {
		t.Errorf("delta item with DisableDeltaShip: err = %v", err)
	}
	if plain.coh.peers != nil {
		t.Error("the ablation recorded ship state")
	}
}
