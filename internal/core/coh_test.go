package core

import (
	"testing"

	"smartrpc/internal/delta"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
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
	if err := encodeObjectInto(enc, rt.space, rt.table, rt.res, rv.Desc, v.Addr); err != nil {
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
