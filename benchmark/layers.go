package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	srpc "smartrpc"
	"smartrpc/internal/delta"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/transport"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// The layer drivers (source B) call each lower package's exported
// functions directly, on inputs taken from the workloads: one real
// 512-item closure payload, one tree node, one 4 KiB page with a seeded
// 5% of its words changed. Every driver proves a round trip before it
// may report a time. They are the recorded per-layer baseline; the
// repository's scattered Benchmark* functions stay useful while working
// on one package, but nothing records them.

// perCallNs calls f in batches of batch calls until budget is spent, five
// batches at least, and returns the median over batches of the mean time
// per call. after, if set, runs untimed after each batch.
func perCallNs(budget time.Duration, batch int, f, after func()) float64 {
	var perCall []float64
	deadline := nowNs() + int64(budget)
	for len(perCall) < 5 || nowNs() < deadline {
		t0 := nowNs()
		for i := 0; i < batch; i++ {
			f()
		}
		perCall = append(perCall, float64(nowNs()-t0)/float64(batch))
		if after != nil {
			after()
		}
	}
	sort.Float64s(perCall)
	return perCall[len(perCall)/2]
}

// mallocsPer returns the heap allocations per call of f over n calls.
func mallocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// layerRun carries what the drivers share.
type layerRun struct {
	ms     metrics
	budget time.Duration // per driver
	seed   int64
	err    error // the first failed round trip
	// closure is a FETCH_REPLY body of closureItems real tree nodes.
	closure []byte
}

// check records a failed round trip; drivers keep going so one broken
// layer does not hide the others' numbers.
func (l *layerRun) check(ok bool, format string, args ...any) {
	if !ok && l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

// runLayerDrivers reports every source-B metric into ms, spending about
// total across the drivers.
func runLayerDrivers(ms metrics, total time.Duration, seed int64) error {
	l := &layerRun{ms: ms, budget: total / time.Duration(len(perLayerDrivers)), seed: seed}
	var err error
	if l.closure, err = closurePayload(seed); err != nil {
		return err
	}
	for _, step := range []func() error{l.vmem, l.swizzle, l.typesAndDeref, l.xdrNode, l.wireClosure, l.wireSmall, l.delta} {
		if err := step(); err != nil {
			return err
		}
	}
	for _, tcp := range []bool{false, true} {
		if err := l.transportEcho(tcp); err != nil {
			return err
		}
		if err := l.nullCall(tcp); err != nil {
			return err
		}
	}
	return l.err
}

func (l *layerRun) vmem() error {
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		return err
	}
	addr, err := sp.Alloc(4096, 8)
	if err != nil {
		return err
	}
	if err := sp.WriteUint(addr+64, 8, 0x1122334455667788); err != nil {
		return err
	}
	got, err := sp.ReadUint(addr+64, 8)
	l.check(err == nil && got == 0x1122334455667788, "vmem: read back %#x, %v", got, err)

	var sink uint64
	off := vmem.VAddr(0)
	l.ms.set("vmem.read_ns", perCallNs(l.budget, 1<<14, func() {
		v, _ := sp.ReadUint(addr+off, 8)
		sink += v
		off = (off + 16) & 4095
	}, nil))
	l.ms.set("vmem.write_ns", perCallNs(l.budget, 1<<14, func() {
		_ = sp.WriteUint(addr+off, 8, sink)
		off = (off + 16) & 4095
	}, nil))

	// A fault that costs nothing to resolve: the handler only raises the
	// protection, so what is timed is detection and dispatch.
	page, err := sp.AllocCachePages(1)
	if err != nil {
		return err
	}
	pn := sp.PageOf(page)
	sp.SetHandler(func(f vmem.Fault) error { return sp.SetProt(f.Page, vmem.ProtReadWrite) })
	faults0, calls := sp.Faults(), uint64(0)
	l.ms.set("vmem.fault_dispatch_ns", perCallNs(l.budget, 1<<12, func() {
		_ = sp.SetProt(pn, vmem.ProtNone)
		_, _ = sp.ReadUint(page, 8)
		calls++
	}, nil))
	l.check(sp.Faults()-faults0 == calls, "vmem: %d faults for %d protected reads", sp.Faults()-faults0, calls)

	const batch = 1 << 10
	objs := make([]vmem.VAddr, 0, batch)
	l.ms.set("vmem.alloc_ns", perCallNs(l.budget, batch, func() {
		a, err := sp.Alloc(16, 8)
		l.check(err == nil, "vmem: alloc: %v", err)
		objs = append(objs, a)
	}, func() {
		for _, a := range objs {
			l.check(sp.Free(a) == nil, "vmem: free of a live allocation failed")
		}
		objs = objs[:0]
	}))
	return nil
}

func (l *layerRun) swizzle() error {
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		return err
	}
	tbl := swizzle.New(sp, newRegistry(), calleeID, 0)
	lpAt := func(i int) wire.LongPtr {
		return wire.LongPtr{Space: callerID, Addr: vmem.VAddr(0x10000 + 16*i), Type: nodeType}
	}
	const n = 512
	addrs := make([]vmem.VAddr, n)
	for i := range addrs {
		a, isNew, err := tbl.Swizzle(lpAt(i))
		if err != nil {
			return err
		}
		l.check(isNew, "swizzle: first sight of %v was not new", lpAt(i))
		addrs[i] = a
	}
	for i, a := range addrs {
		lp, err := tbl.Unswizzle(a, nodeType)
		l.check(err == nil && lp == lpAt(i), "swizzle: unswizzle(swizzle(%v)) = %v, %v", lpAt(i), lp, err)
	}
	i := 0
	l.ms.set("swizzle.hit_ns", perCallNs(l.budget, 1<<13, func() {
		a, isNew, _ := tbl.Swizzle(lpAt(i))
		l.check(!isNew && a == addrs[i], "swizzle: hit moved %v", lpAt(i))
		i = (i + 1) % n
	}, nil))
	l.ms.set("swizzle.unswizzle_ns", perCallNs(l.budget, 1<<13, func() {
		_, _ = tbl.Unswizzle(addrs[i], nodeType)
		i = (i + 1) % n
	}, nil))
	next := n
	l.ms.set("swizzle.miss_ns", perCallNs(l.budget, n, func() {
		_, isNew, err := tbl.Swizzle(lpAt(next))
		l.check(err == nil && isNew, "swizzle: miss on %v: new=%v, %v", lpAt(next), isNew, err)
		next++
	}, nil))
	return nil
}

func (l *layerRun) typesAndDeref() error {
	reg := newRegistry()
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		return err
	}
	res := reg.ResolverFor(sp.Profile())
	rv, err := res.Resolve(nodeType)
	if err != nil {
		return err
	}
	l.check(rv.Layout.Size == 16, "types: tree node lays out to %d bytes, want 16", rv.Layout.Size)
	l.ms.set("types.layout_ns", perCallNs(l.budget, 1<<14, func() { _, _ = res.Resolve(nodeType) }, nil))

	ps := newPass(&workload{name: "layer-deref", tiny: true}, 1, l.seed, false)
	p, err := ps.setup()
	if err != nil {
		return err
	}
	defer ps.endRound(false)
	var sum int64
	l.ms.set("core.deref_local_ns", perCallNs(l.budget, 1<<13, func() {
		ref, err := p.caller.Deref(p.root)
		if err == nil {
			var d int64
			d, err = ref.Int("data", 0)
			sum += d
		}
		l.check(err == nil, "core: local deref: %v", err)
	}, nil))
	return nil
}

// xdrNode encodes and decodes one tree node's canonical form: two long
// pointers and the data word.
func (l *layerRun) xdrNode() error {
	left := wire.LongPtr{Space: callerID, Addr: 0x10010, Type: nodeType}
	right := wire.LongPtr{Space: callerID, Addr: 0x10020, Type: nodeType}
	const data int64 = 0x0123456789abcdef
	enc := xdr.NewEncoder(64)
	encode := func() {
		enc.Reset()
		for _, lp := range [2]wire.LongPtr{left, right} {
			enc.PutUint32(lp.Space)
			enc.PutUint32(uint32(lp.Addr))
			enc.PutUint32(uint32(lp.Type))
		}
		enc.PutInt64(data)
	}
	decode := func() (lps [2]wire.LongPtr, d int64, err error) {
		dec := xdr.NewDecoder(enc.Bytes())
		for i := range lps {
			var w [3]uint32
			for j := range w {
				if w[j], err = dec.Uint32(); err != nil {
					return lps, 0, err
				}
			}
			lps[i] = wire.LongPtr{Space: w[0], Addr: vmem.VAddr(w[1]), Type: srpc.TypeID(w[2])}
		}
		d, err = dec.Int64()
		return lps, d, err
	}
	encode()
	lps, d, err := decode()
	l.check(err == nil && lps == [2]wire.LongPtr{left, right} && d == data, "xdr: node round trip: %v %d %v", lps, d, err)
	l.ms.set("xdr.encode_node_ns", perCallNs(l.budget, 1<<13, encode, nil))
	l.ms.set("xdr.decode_node_ns", perCallNs(l.budget, 1<<13, func() { _, _, _ = decode() }, nil))
	return nil
}

// captureNode copies the body of every FETCH_REPLY sent through it.
type captureNode struct {
	transport.Node
	replies *[][]byte
}

func (n *captureNode) Send(m wire.Message) error {
	if m.Kind == wire.KindFetchReply {
		*n.replies = append(*n.replies, append([]byte(nil), m.Payload...))
	}
	return n.Node.Send(m)
}

// closureItems is how many data items the drivers' closure payload holds.
// The workloads' own FETCH_REPLY frames carry 257 to about 600 items; a
// fixed count keeps the per-frame numbers comparable across changes to
// the closure policy.
const closureItems = 512

// closurePayload runs one read session over a small tree, captures the
// FETCH_REPLY bodies the origin sent, and returns their first
// closureItems items re-encoded as one body: real tree nodes, exactly as
// the origin shipped them.
func closurePayload(seed int64) ([]byte, error) {
	var replies [][]byte
	ps := newPass(&workloads[0], 2047, seed, false)
	ps.wrap = func(n transport.Node) transport.Node { return &captureNode{Node: n, replies: &replies} }
	p, err := ps.setup()
	if err != nil {
		return nil, err
	}
	defer ps.endRound(false)
	if _, err := ps.session(p, false); err != nil {
		return nil, err
	}
	var all wire.ItemsPayload
	for _, body := range replies {
		got, err := wire.DecodeItemsPayload(body)
		if err != nil {
			return nil, err
		}
		all.Items = append(all.Items, got.Items...)
	}
	if len(all.Items) < closureItems {
		return nil, fmt.Errorf("layer drivers: the read session shipped %d items, want %d", len(all.Items), closureItems)
	}
	all.Items = all.Items[:closureItems]
	return all.Encode(), nil
}

func (l *layerRun) wireClosure() error {
	payload := l.closure
	items, err := wire.DecodeItemsPayload(payload)
	if err != nil {
		return err
	}
	l.check(len(items.Items) == closureItems, "wire: the closure holds %d items, want %d", len(items.Items), closureItems)
	l.check(bytes.Equal(items.Encode(), payload), "wire: encode(decode(closure)) differs from the closure")
	l.ms.set("wire.encode_items_512_us", perCallNs(l.budget, 16, func() { _ = items.Encode() }, nil)/1e3)
	l.ms.set("wire.decode_items_512_us", perCallNs(l.budget, 16, func() { _, _ = wire.DecodeItemsPayload(payload) }, nil)/1e3)

	msg := wire.Message{Kind: wire.KindFetchReply, Session: 1<<32 | 1, Seq: 7, From: callerID, To: calleeID, Payload: payload}
	msg.Seal()
	enc := xdr.NewEncoder(msg.WireSize())
	msg.Encode(enc)
	back, err := wire.Decode(xdr.NewDecoder(enc.Bytes()))
	l.check(err == nil && back.SumOK() && back.Seq == msg.Seq && bytes.Equal(back.Payload, payload),
		"wire: closure frame round trip: %v", err)
	l.ms.set("wire.encode_closure_us", perCallNs(l.budget, 16, func() {
		enc.Reset()
		msg.Encode(enc)
	}, nil)/1e3)
	l.ms.set("wire.decode_closure_us", perCallNs(l.budget, 16, func() { _, _ = wire.Decode(xdr.NewDecoder(enc.Bytes())) }, nil)/1e3)
	l.ms.set("wire.seal_closure_us", perCallNs(l.budget, 16, msg.Seal, nil)/1e3)

	// One frame through the stream framing, both directions, with the
	// pools warm.
	var buf bytes.Buffer
	frame := func() {
		buf.Reset()
		if err := wire.WriteFrame(&buf, &msg); err != nil {
			l.check(false, "wire: write frame: %v", err)
			return
		}
		got, err := wire.ReadFrame(&buf)
		l.check(err == nil && len(got.Payload) == len(payload), "wire: read frame: %v", err)
	}
	frame()
	l.ms.set("wire.allocs_per_frame_closure", mallocsPer(256, frame))
	return nil
}

func (l *layerRun) wireSmall() error {
	msg := wire.Message{Kind: wire.KindInvalidate, Session: 1<<32 | 1, Seq: 9, From: callerID, To: calleeID}
	msg.Seal()
	enc := xdr.NewEncoder(msg.WireSize())
	msg.Encode(enc)
	back, err := wire.Decode(xdr.NewDecoder(enc.Bytes()))
	l.check(err == nil && back.SumOK() && back.Kind == msg.Kind && back.Seq == msg.Seq, "wire: small frame round trip: %v", err)
	l.ms.set("wire.encode_small_ns", perCallNs(l.budget, 1<<12, func() {
		enc.Reset()
		msg.Encode(enc)
	}, nil))
	l.ms.set("wire.decode_small_ns", perCallNs(l.budget, 1<<12, func() { _, _ = wire.Decode(xdr.NewDecoder(enc.Bytes())) }, nil))
	return nil
}

// delta diffs and patches one 4 KiB page with a seeded 5% of its 8-byte
// words rewritten, the shape tree_warm_local's mutator produces.
func (l *layerRun) delta() error {
	rng := rand.New(rand.NewSource(l.seed))
	base := make([]byte, 4096)
	rng.Read(base)
	cur := append([]byte(nil), base...)
	for _, w := range rng.Perm(len(cur) / 8)[:len(cur)/8/20] {
		rng.Read(cur[8*w : 8*w+8])
	}
	runs := delta.Diff(base, cur, delta.DefaultGap)
	patched, err := delta.Apply(base, runs)
	l.check(err == nil && bytes.Equal(patched, cur), "delta: apply(diff) differs from the current page: %v", err)
	l.check(len(delta.Diff(base, base, delta.DefaultGap)) == 0, "delta: equal pages produced runs")
	l.ms.set("delta.diff_4k_sparse_us", perCallNs(l.budget, 64, func() { _ = delta.Diff(base, cur, delta.DefaultGap) }, nil)/1e3)
	l.ms.set("delta.diff_4k_equal_us", perCallNs(l.budget, 64, func() { _ = delta.Diff(base, base, delta.DefaultGap) }, nil)/1e3)
	l.ms.set("delta.apply_4k_sparse_us", perCallNs(l.budget, 64, func() { _, _ = delta.Apply(base, runs) }, nil)/1e3)
	return nil
}

// transportEcho measures a round trip through the transport alone: space
// 1 sends, a goroutine on space 2 sends the frame straight back.
func (l *layerRun) transportEcho(tcp bool) error {
	var a, b transport.Node
	name := "local"
	if tcp {
		name = "tcp"
		bn, err := srpc.ListenTCP(calleeID, "127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		an, err := srpc.ListenTCP(callerID, "127.0.0.1:0", map[uint32]string{calleeID: bn.Addr()})
		if err != nil {
			_ = bn.Close()
			return err
		}
		a, b = an, bn
	} else {
		net, err := srpc.NewLocalNetwork(srpc.NetModel{})
		if err != nil {
			return err
		}
		defer net.Close()
		if a, err = net.Attach(callerID); err != nil {
			return err
		}
		if b, err = net.Attach(calleeID); err != nil {
			return err
		}
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			m.To = m.From
			if b.Send(m) != nil {
				return
			}
		}
	}()
	defer func() {
		_ = a.Close()
		_ = b.Close()
		<-echoed
	}()

	rtt := func(body []byte) func() {
		msg := wire.Message{Kind: wire.KindFetchReply, Session: 1, To: calleeID, Payload: body}
		return func() {
			msg.Seq++
			if err := a.Send(msg); err != nil {
				l.check(false, "transport: %s echo send: %v", name, err)
				return
			}
			got, err := a.Recv()
			l.check(err == nil && got.Seq == msg.Seq && bytes.Equal(got.Payload, body), "transport: %s echo came back wrong: %v", name, err)
		}
	}
	small, closure := rtt(nil), rtt(l.closure)
	small() // dial
	l.ms.set("transport."+name+"_rtt_small_us", perCallNs(l.budget, 64, small, nil)/1e3)
	l.ms.set("transport."+name+"_rtt_closure_us", perCallNs(l.budget, 16, closure, nil)/1e3)
	if tcp {
		l.ms.set("transport.tcp_allocs_per_msg", mallocsPer(512, small)/2)
	}
	return nil
}

// nullCall measures the smallest session that crosses the transport:
// BeginSession, a call with no arguments and no data, EndSession.
func (l *layerRun) nullCall(tcp bool) error {
	name := "local"
	if tcp {
		name = "tcp"
	}
	ps := newPass(&workload{name: "layer-null-call", tcp: tcp, tiny: true}, 1, l.seed, false)
	p, err := ps.setup()
	if err != nil {
		return err
	}
	defer ps.endRound(false)
	l.ms.set("core.null_call_"+name+"_us", perCallNs(l.budget, 32, func() {
		err := p.caller.BeginSession()
		if err == nil {
			_, err = p.caller.Call(calleeID, pingProc, nil)
			if endErr := p.caller.EndSession(); err == nil {
				err = endErr
			}
		}
		l.check(err == nil, "core: null call over %s: %v", name, err)
	}, nil)/1e3)
	return nil
}
