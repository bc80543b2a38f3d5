package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	srpc "smartrpc"
	"smartrpc/internal/transport"
	"smartrpc/internal/vmem"
)

// workload is one named set of inputs. The names are the benchmark's
// contract with every later change: add workloads, never rename these.
type workload struct {
	name string
	why  string
	// tcp runs the pair over two loopback TCP nodes instead of the
	// in-process switch.
	tcp bool
	// update makes the handler double every node it visits.
	update bool
	// persistent keeps one pair for a whole round (after warm-up ops)
	// instead of building a fresh pair and tree before every op.
	persistent bool
	// tiny shrinks the tree to a single node, rewritten before each op.
	tiny bool
	// mutatePct is the share of nodes the caller rewrites between ops.
	mutatePct int
	// heapAtOp is the timed op of a round after which a persistent pair's
	// live heap is read. The heap of a pair that stays open grows with
	// every session it runs, so a reading after however many ops the host
	// got through would vary with the host's speed.
	heapAtOp int
}

var workloads = []workload{
	{name: "tree_read_local", why: "cold read-only session over the in-process switch (paper Fig 4 smart/1.0): fetch path and resident access do the work, transport almost none"},
	{name: "tree_read_tcp", tcp: true, why: "the same op over two loopback TCP nodes: its distance from tree_read_local is the transport cost at 22 KiB frames"},
	{name: "tree_update_local", update: true, why: "handler doubles every node (paper Fig 7): write faults, modified-set collection, delta shipping on RETURN and home install beside the fetch path"},
	{name: "tree_warm_local", persistent: true, mutatePct: 5, heapAtOp: 16, why: "persistent pair, caller rewrites a seeded 5% of nodes between ops: no FETCH, the validate path, warm cache, encode cache and delta replies do the work"},
	{name: "tiny_session_local", persistent: true, tiny: true, heapAtOp: 50000, why: "one-node tree rewritten before each op: six minimum-size messages and one fault, so every layer's fixed per-session and per-message cost and no bulk"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	callerID uint32 = 1
	calleeID uint32 = 2

	nodeType   srpc.TypeID = 1
	searchProc             = "search"
	pingProc               = "ping"

	// warmupOps is how many untimed ops a persistent pair runs before the
	// first timed one, so caches, pools and lazily sized maps have settled.
	warmupOps = 5

	// maxSetupsPerRound bounds how often a round repeats a persistent
	// workload's set-up for the sake of setup_s.
	maxSetupsPerRound = 64
)

// newRegistry declares the paper's tree node: two pointers and eight
// bytes of data, 16 bytes on the default 32-bit profile.
func newRegistry() *srpc.Registry {
	reg := srpc.NewRegistry()
	reg.MustRegister(&srpc.TypeDesc{
		ID:   nodeType,
		Name: "TreeNode",
		Fields: []srpc.Field{
			{Name: "left", Kind: srpc.KindPtr, Elem: nodeType},
			{Name: "right", Kind: srpc.KindPtr, Elem: nodeType},
			{Name: "data", Kind: srpc.KindInt64},
		},
	})
	return reg
}

// probe is the benchmark's handler state: what the search procedure
// measures while it runs on the callee. It reads the clock once per node
// visit; a visit during which the callee's fault counter advanced is a
// fault sample.
type probe struct {
	space      *vmem.Space // the callee's address space
	last       int64
	lastFaults uint64
	faultNs    []int64 // fault-visit latencies of the pass, appended in place
	corrupt    bool    // test hook: return a wrong checksum

	// Traced pass only.
	rec      *recorder
	resident []int64 // fault-free visit latencies of the op in progress
}

func (p *probe) endVisit() {
	now := nowNs()
	faults := p.space.Faults()
	switch {
	case faults != p.lastFaults:
		p.faultNs = append(p.faultNs, now-p.last)
		if p.rec != nil {
			p.rec.faultVisit(p.last, now)
		}
	case p.rec != nil:
		p.resident = append(p.resident, now-p.last)
	}
	p.last, p.lastFaults = now, faults
}

// search is the remote procedure: a depth-first visit of every node
// below args[0], summing the data and, when args[1] is set, doubling it
// in place. It returns the visit count and the sum of the values read.
func (p *probe) search(ctx *srpc.Ctx, args []srpc.Value) ([]srpc.Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("search: want 2 args, got %d", len(args))
	}
	rt := ctx.Runtime()
	update := args[1].Bool()
	p.last, p.lastFaults = nowNs(), p.space.Faults()
	if p.rec != nil {
		p.resident = p.resident[:0]
		p.rec.enterHandler(p.last)
	}
	var visited, sum int64
	var walk func(v srpc.Value) error
	walk = func(v srpc.Value) error {
		if v.IsNullPtr() {
			return nil
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return err
		}
		visited++
		sum += d
		if update {
			if err := ref.SetInt("data", 0, d*2); err != nil {
				return err
			}
		}
		l, err := ref.Ptr("left", 0)
		if err != nil {
			return err
		}
		r, err := ref.Ptr("right", 0)
		if err != nil {
			return err
		}
		p.endVisit()
		if err := walk(l); err != nil {
			return err
		}
		return walk(r)
	}
	err := walk(args[0])
	if p.rec != nil {
		var total int64
		for _, ns := range p.resident {
			total += ns
		}
		p.rec.exitHandler(nowNs(), total, len(p.resident))
	}
	if err != nil {
		return nil, err
	}
	if p.corrupt {
		sum++
	}
	return []srpc.Value{srpc.Int64Value(visited), srpc.Int64Value(sum)}, nil
}

// pair is one caller/callee pair with the caller's tree, as one op (cold
// workloads) or one round (persistent workloads) uses it.
type pair struct {
	caller, callee *srpc.Runtime
	net            *srpc.LocalNetwork // nil over TCP
	root           srpc.Value
	nodes          []srpc.Value // by preorder index; kept only when the caller mutates
	vals           []int64      // the caller's expectation of every node, preorder
	sum            int64        // sum of vals
}

// close shuts down whatever of the pair exists. Runtimes close their
// nodes; errors on the way down cannot change what the run reports.
func (p *pair) close() {
	if p.caller != nil {
		_ = p.caller.Close()
	}
	if p.callee != nil {
		_ = p.callee.Close()
	}
	if p.net != nil {
		_ = p.net.Close()
	}
}

// pass runs one workload once, traced or untraced, and holds everything
// the run measured.
type pass struct {
	w      *workload
	nodes  int
	budget time.Duration // measured wall time of the whole pass, set-up included; runPasses reads it
	rng    *rand.Rand
	probe  probe
	rec    *recorder // nil on the untraced pass
	count  counters

	live     *pair  // the most recent pair, left open for the live-heap reading
	baseHeap uint64 // live heap before the pass's first set-up
	// wrap, when set, decorates each node below the benchmark's own
	// decorators (the layer drivers capture a payload with it).
	wrap func(transport.Node) transport.Node

	attempted, failed int
	firstErr          error
	opNs              []int64
	setupNs           []int64
	timedNs           int64
	mem               memDelta
	liveHeap          []int64    // per round: live heap with the pair open, less baseHeap
	heapRead          bool       // the round in progress has its liveHeap reading
	stats             srpc.Stats // both runtimes, timed ops only
	msgs, modelNs     int64      // the counting decorator's deltas, timed ops only

	perm []int32 // mutation scratch: a permutation of node indices
}

// memDelta accumulates allocator and collector activity over timed
// regions, from process-wide MemStats (both runtimes and the handler).
type memDelta struct {
	mallocs, bytes, pauseNs uint64
	gcCycles                uint32
	before                  runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
	m.gcCycles += after.NumGC - m.before.NumGC
}

func newPass(w *workload, nodes int, seed int64, traced bool) *pass {
	if w.tiny {
		nodes = 1
	}
	ps := &pass{w: w, nodes: nodes, rng: rand.New(rand.NewSource(seed))}
	// Sample buffers are sized once, before the first timed op, so the
	// handler never allocates and the live-heap reading holds a constant
	// share of benchmark memory whatever the op count.
	samples := 1 << 17
	if w.tiny {
		samples = 1 << 20
	}
	ps.opNs = make([]int64, 0, samples)
	ps.probe.faultNs = make([]int64, 0, samples)
	if traced {
		ps.rec = newRecorder()
		ps.probe.rec = ps.rec
		ps.probe.resident = make([]int64, 0, nodes)
	}
	return ps
}

// attach decorates a transport node: the counting decorator always, the
// timing decorator on the traced pass.
func (ps *pass) attach(n transport.Node) transport.Node {
	if ps.wrap != nil {
		n = ps.wrap(n)
	}
	n = &countingNode{Node: n, c: &ps.count}
	if ps.rec != nil {
		n = &timingNode{Node: n, rec: ps.rec}
	}
	return n
}

// setup builds a pair and its tree, connects the two spaces with one
// empty session, and on a persistent workload runs the warm-up ops. It
// closes the previous pair first.
func (ps *pass) setup() (*pair, error) {
	ps.closeLive()
	start := nowNs()
	p := &pair{}
	ps.live = p
	var callerNode, calleeNode transport.Node
	if ps.w.tcp {
		// Host loopback, not a real link.
		cn, err := srpc.ListenTCP(calleeID, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		rn, err := srpc.ListenTCP(callerID, "127.0.0.1:0", map[uint32]string{calleeID: cn.Addr()})
		if err != nil {
			_ = cn.Close()
			return nil, err
		}
		callerNode, calleeNode = rn, cn
	} else {
		net, err := srpc.NewLocalNetwork(srpc.NetModel{})
		if err != nil {
			return nil, err
		}
		p.net = net
		if callerNode, err = net.Attach(callerID); err != nil {
			return nil, err
		}
		if calleeNode, err = net.Attach(calleeID); err != nil {
			return nil, err
		}
	}
	reg := newRegistry()
	var err error
	if p.caller, err = srpc.New(srpc.Options{ID: callerID, Node: ps.attach(callerNode), Registry: reg}); err != nil {
		return nil, err
	}
	if p.callee, err = srpc.New(srpc.Options{ID: calleeID, Node: ps.attach(calleeNode), Registry: reg}); err != nil {
		return nil, err
	}
	ps.probe.space = p.callee.Space()
	if err := p.callee.Register(searchProc, ps.probe.search); err != nil {
		return nil, err
	}
	if err := p.callee.Register(pingProc, func(*srpc.Ctx, []srpc.Value) ([]srpc.Value, error) { return nil, nil }); err != nil {
		return nil, err
	}
	if err := ps.buildTree(p); err != nil {
		return nil, err
	}
	// Connect: over TCP the first message dials, which belongs to set-up.
	if err := p.caller.BeginSession(); err != nil {
		return nil, err
	}
	if _, err := p.caller.Call(calleeID, pingProc, nil); err != nil {
		return nil, err
	}
	if err := p.caller.EndSession(); err != nil {
		return nil, err
	}
	if ps.w.persistent {
		for i := 0; i < warmupOps; i++ {
			ps.mutate(p)
			if _, err := ps.session(p, false); err != nil {
				return nil, fmt.Errorf("warm-up op: %w", err)
			}
		}
	}
	ps.setupNs = append(ps.setupNs, nowNs()-start)
	return p, nil
}

// buildTree allocates a complete binary tree of ps.nodes nodes in the
// caller's heap, data = preorder index from 1.
func (ps *pass) buildTree(p *pair) error {
	n := ps.nodes
	levels := 0
	for 1<<(levels+1) <= n+1 {
		levels++
	}
	if 1<<levels-1 != n {
		return fmt.Errorf("%d is not a complete binary tree size (2^k-1)", n)
	}
	p.vals = make([]int64, 0, n)
	if ps.w.persistent {
		p.nodes = make([]srpc.Value, 0, n)
	}
	rt := p.caller
	var build func(level int) (srpc.Value, error)
	build = func(level int) (srpc.Value, error) {
		if level == 0 {
			return srpc.NullPtr(nodeType), nil
		}
		v, err := rt.NewObject(nodeType)
		if err != nil {
			return v, err
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return v, err
		}
		p.vals = append(p.vals, int64(len(p.vals)+1))
		if p.nodes != nil {
			p.nodes = append(p.nodes, v)
		}
		if err := ref.SetInt("data", 0, int64(len(p.vals))); err != nil {
			return v, err
		}
		l, err := build(level - 1)
		if err != nil {
			return v, err
		}
		if err := ref.SetPtr("left", 0, l); err != nil {
			return v, err
		}
		r, err := build(level - 1)
		if err != nil {
			return v, err
		}
		return v, ref.SetPtr("right", 0, r)
	}
	var err error
	p.root, err = build(levels)
	p.sum = int64(n) * int64(n+1) / 2
	return err
}

// mutate is what the caller does to its own tree between two ops of a
// persistent workload: rewrite a seeded subset of the nodes with seeded
// values, tracking the sum the next search must return.
func (ps *pass) mutate(p *pair) {
	k := len(p.nodes) * ps.w.mutatePct / 100
	if ps.w.tiny {
		k = 1
	}
	if k == 0 {
		return
	}
	if ps.perm == nil {
		ps.perm = make([]int32, len(p.nodes))
		for i := range ps.perm {
			ps.perm[i] = int32(i)
		}
	}
	for i := 0; i < k; i++ {
		// A partial Fisher-Yates shuffle: the first k entries are a
		// uniform k-subset.
		j := i + ps.rng.Intn(len(ps.perm)-i)
		ps.perm[i], ps.perm[j] = ps.perm[j], ps.perm[i]
		idx := ps.perm[i]
		v := ps.rng.Int63n(1 << 40)
		ref, err := p.caller.Deref(p.nodes[idx])
		if err == nil {
			err = ref.SetInt("data", 0, v)
		}
		if err != nil {
			// A local store cannot fail on a node this pass built; the next
			// op's checksum would expose it if it ever did.
			ps.fail(fmt.Errorf("mutate node %d: %w", idx, err))
			return
		}
		p.sum += v - p.vals[idx]
		p.vals[idx] = v
	}
}

func (ps *pass) fail(err error) {
	ps.failed++
	if ps.firstErr == nil {
		ps.firstErr = err
	}
}

// session is one op: BeginSession, the search Call, EndSession, verified
// against the caller's expectation. timed ops feed the samples and, on
// the traced pass, the recorder. It returns the op's duration.
func (ps *pass) session(p *pair, timed bool) (int64, error) {
	args := []srpc.Value{p.root, srpc.BoolValue(ps.w.update)}
	rec := ps.rec
	if !timed {
		rec = nil
	}
	faultMark := len(ps.probe.faultNs)
	t0 := nowNs()
	if rec != nil {
		rec.beginOp(t0)
	}
	err := p.caller.BeginSession()
	var res []srpc.Value
	if err == nil {
		if rec != nil {
			rec.advance(idBegin, idCall, nowNs())
		}
		res, err = p.caller.Call(calleeID, searchProc, args)
		if rec != nil && err == nil {
			rec.advance(idCall, idEnd, nowNs())
		}
		if endErr := p.caller.EndSession(); err == nil {
			err = endErr
		}
	}
	t1 := nowNs()
	if err == nil {
		switch {
		case len(res) != 2:
			err = fmt.Errorf("search returned %d values", len(res))
		case res[0].Int64() != int64(ps.nodes):
			err = fmt.Errorf("visited %d of %d nodes", res[0].Int64(), ps.nodes)
		case res[1].Int64() != p.sum:
			err = fmt.Errorf("checksum %d, want %d", res[1].Int64(), p.sum)
		}
	}
	if rec != nil {
		if err != nil {
			rec.abortOp()
		} else {
			// The median sorts 32 767 samples: after t1, not in the handler.
			rec.endOp(t1, int64(median(ps.probe.resident)))
		}
	}
	if !timed || err != nil {
		// Only verified, timed ops contribute fault samples.
		ps.probe.faultNs = ps.probe.faultNs[:faultMark]
	}
	if err == nil && ps.w.update {
		for i := range p.vals {
			p.vals[i] *= 2
		}
		p.sum *= 2
	}
	return t1 - t0, err
}

// checkHome walks the caller's own heap, outside any session, and
// compares every node with the caller's expectation: after an update op
// the doubled values must have come home.
func (ps *pass) checkHome(p *pair) error {
	rt := p.caller
	i := 0
	var walk func(v srpc.Value) error
	walk = func(v srpc.Value) error {
		if v.IsNullPtr() {
			return nil
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return err
		}
		if i >= len(p.vals) || d != p.vals[i] {
			return fmt.Errorf("node %d holds %d at home after the op", i, d)
		}
		i++
		for _, f := range []string{"left", "right"} {
			c, err := ref.Ptr(f, 0)
			if err != nil {
				return err
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.root); err != nil {
		return err
	}
	if i != len(p.vals) {
		return fmt.Errorf("home walk reached %d of %d nodes", i, len(p.vals))
	}
	return nil
}

// counted names the runtime counters the benchmark reports, in one place,
// so that summing two runtimes and taking a delta cannot disagree on the
// set. It returns an array, not a slice: the tiny workload calls it
// inside its allocation bracket.
func counted(s *srpc.Stats) [14]*uint64 {
	return [...]*uint64{&s.Faults, &s.FetchesSent, &s.ItemsInstalled, &s.BytesInstalled,
		&s.CohItemBytes, &s.CohDeltaItems, &s.CohItemsSkipped,
		&s.CohRevalidateHits, &s.CohRevalidateMisses, &s.CohRevalidateBytes,
		&s.Retries, &s.StaleReplyDrops, &s.EncCacheHits, &s.EncCacheMisses}
}

// statsOf sums the reported counters of both runtimes of a pair.
func statsOf(p *pair) srpc.Stats {
	a, b := p.caller.Stats(), p.callee.Stats()
	bs := counted(&b)
	for i, f := range counted(&a) {
		*f += *bs[i]
	}
	return a
}

// addStats accumulates after-before into ps.stats.
func (ps *pass) addStats(before, after srpc.Stats) {
	bs, as := counted(&before), counted(&after)
	for i, f := range counted(&ps.stats) {
		*f += *as[i] - *bs[i]
	}
}

// heapInUse reads the live heap once it has stopped moving. One collection
// is not enough: what a sync.Pool held survives one cycle in its victim
// cache, and the goroutines of a pair just closed let go of what they hold
// a moment after Close returns.
func heapInUse() uint64 {
	var m runtime.MemStats
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if i > 0 && math.Abs(float64(m.HeapAlloc)-float64(prev)) < 1024 {
			break
		}
		prev = m.HeapAlloc
		time.Sleep(time.Millisecond)
	}
	return m.HeapAlloc
}

// round runs the workload until budget has elapsed (set-up included) or,
// when maxOps is positive, until maxOps timed ops are done. It leaves the
// last pair open; the caller follows with endRound.
func (ps *pass) round(budget time.Duration, maxOps int) error {
	deadline := nowNs() + int64(budget)
	done := func(ops int) bool {
		if maxOps > 0 {
			return ops >= maxOps
		}
		return nowNs() >= deadline
	}
	if ps.baseHeap == 0 {
		// Once per pass, before any pair exists: what a closed pair left in
		// the program's package-level pools belongs to the live heap, not
		// to the baseline.
		ps.baseHeap = heapInUse()
	}
	var p *pair
	var err error
	if ps.w.persistent {
		// A persistent pair is set up once per round, which leaves setup_s
		// four samples a run; a set-up that is cheap next to the round is
		// repeated, each pair replacing the last.
		for i := 0; i < maxSetupsPerRound; i++ {
			if p, err = ps.setup(); err != nil {
				return fmt.Errorf("%s: set-up: %w", ps.w.name, err)
			}
			if nowNs() >= deadline-int64(budget)*19/20 {
				break
			}
		}
		if ps.w.tiny {
			// A 25 us op cannot afford a stop-the-world MemStats read on
			// each side; bracket the round. What runs between its ops (one
			// local store, the loop) does not allocate.
			ps.mem.start()
			defer ps.mem.stop()
		}
	}
	for ops := 0; !done(ops); ops++ {
		if ps.w.persistent {
			ps.mutate(p)
		} else {
			if p, err = ps.setup(); err != nil {
				return fmt.Errorf("%s: set-up: %w", ps.w.name, err)
			}
			runtime.GC()
		}
		before := statsOf(p)
		msgs0, model0 := ps.count.msgs.Load(), ps.count.modelNs.Load()
		if !ps.w.tiny {
			ps.mem.start()
		}
		ns, err := ps.session(p, true)
		if !ps.w.tiny {
			ps.mem.stop()
		}
		ps.attempted++
		if err == nil && ps.w.update && ps.attempted == 1 {
			err = ps.checkHome(p)
		}
		if err != nil {
			// The op's messages and counters describe a failure, not the
			// workload: they stay out of every per-op figure.
			ps.fail(err)
			if ps.failed >= 3 {
				return fmt.Errorf("%s: gave up after %d failed ops: %w", ps.w.name, ps.failed, ps.firstErr)
			}
			continue
		}
		ps.addStats(before, statsOf(p))
		ps.msgs += ps.count.msgs.Load() - msgs0
		ps.modelNs += ps.count.modelNs.Load() - model0
		ps.opNs = append(ps.opNs, ns)
		ps.timedNs += ns
		if ops+1 == ps.w.heapAtOp {
			ps.readLiveHeap()
		}
	}
	return nil
}

// readLiveHeap records what the open pair holds: the settled heap with
// both runtimes open, less the pass's baseline.
func (ps *pass) readLiveHeap() {
	ps.liveHeap = append(ps.liveHeap, int64(heapInUse())-int64(ps.baseHeap))
	ps.heapRead = true
}

// endRound closes the round's pair. A round that has not read its pair's
// live heap yet (a cold workload, whose pairs live for one op, or a round
// too short to reach heapAtOp) reads it first; after the pass's last
// round the last update op is checked to have come home.
func (ps *pass) endRound(last bool) {
	if ps.live == nil {
		return
	}
	if last && ps.w.update && len(ps.opNs) > 0 {
		if err := ps.checkHome(ps.live); err != nil {
			ps.fail(err)
		}
	}
	if !ps.heapRead && ps.baseHeap != 0 {
		ps.readLiveHeap()
	}
	ps.heapRead = false
	ps.closeLive()
}

// closeLive closes the pass's open pair, if any, and drops the probe's
// hold on the callee's address space, through which the whole closed
// runtime would stay reachable.
func (ps *pass) closeLive() {
	if ps.live != nil {
		ps.live.close()
		ps.live, ps.probe.space = nil, nil
	}
}

// ops is the number of timed ops that passed verification.
func (ps *pass) ops() int { return len(ps.opNs) }

func perOp[T int64 | uint64 | uint32](total T, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(ops)
}

// endToEndMetrics reports what a user of the system would see. Only an
// untraced pass may be asked.
func (ps *pass) endToEndMetrics(ms metrics) {
	n := ps.ops()
	ms.set("setup_s", median(ps.setupNs)/1e9)
	ms.set("op_ms_p50", median(ps.opNs)/1e6)
	if ps.timedNs > 0 {
		ms.set("ops_per_s", float64(n)/(float64(ps.timedNs)/1e9))
	} else {
		ms.set("ops_per_s", 0)
	}
	ms.set("fault_us_p50", median(ps.probe.faultNs)/1e3)
	ms.set("allocs_per_op", perOp(ps.mem.mallocs, n))
	ms.set("alloc_kb_per_op", perOp(ps.mem.bytes, n)/1024)
	ms.set("live_heap_mb", median(ps.liveHeap)/(1<<20))
}

// visitOverheadNs times what the handler adds to every node visit: one
// clock read, one fault-counter read, one comparison.
func visitOverheadNs() (float64, error) {
	space, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		return 0, err
	}
	p := probe{space: space}
	p.last, p.lastFaults = nowNs(), space.Faults()
	return perCallNs(20*time.Millisecond, 1<<14, p.endVisit, nil), nil
}
