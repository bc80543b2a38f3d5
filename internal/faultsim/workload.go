package faultsim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
)

// This file is the randomized workload side of the harness: a scenario
// derives a session workload (nested calls, callbacks via demand
// fetching, mutations, extended_malloc/free) and a fault schedule from
// one seed, runs it against a real network of runtimes wrapped in the
// chaos transport, and checks three things after every operation:
//
//  1. Fault-free operations return exactly the values a pure-Go model
//     of the trees predicts.
//  2. Faulted operations either succeed with correct values or fail
//     with an ordinary typed error — never a panic, never an error
//     matching core.ErrInvariant, never a hang (the caller enforces a
//     scenario deadline).
//  3. Every quiescent point satisfies the coherency invariants: after a
//     clean session end all spaces are idle-clean; after a failed one,
//     AbortSession must return them to idle-clean.

const nodeType types.ID = 1

// Scenario is one fully determined chaos run. Zero-valued fields mean
// "none of that fault"; DefaultScenario derives a varied mix from a seed.
type Scenario struct {
	Seed   uint64
	Spaces int // total spaces including ground (>= 2)
	Ops    int // sessions to run

	Faults            Config // Seed field is overridden with Seed
	CrashPermille     int    // per-op chance of crash-restarting a space
	PartitionPermille int    // per-op chance of a one-way partition for that op

	Policy           core.Policy
	DisableDeltaShip bool
	// Prefetch enables the asynchronous speculative prefetcher on every
	// space, so fetch chaos also hits speculative FETCH exchanges and
	// their in-flight registry joins.
	Prefetch bool
	// Concurrent switches the workload from one ground session at a time
	// to a goroutine per non-ground space, all holding overlapping
	// sessions over one shared ground-owned tree (concurrent.go). The
	// value oracle becomes the internal/histcheck linearizability
	// checker; the policy is forced to smart (the coherency protocol
	// under test is the smart-pointer one).
	Concurrent  bool
	CallTimeout time.Duration
	// StreamChunkBytes, when > 0, lowers every space's streaming
	// threshold so ordinary fetch/validate replies split into chunked
	// streams, putting KindFetchChunk frames in the fault mix's reach.
	// Zero keeps the production default (only oversized replies stream).
	StreamChunkBytes int
	// Recovery turns on transparent exchange recovery for every space:
	// each client exchange runs under a retry budget (so dropped,
	// corrupted, and delayed frames are absorbed instead of surfacing as
	// typed errors), origins answer retried non-idempotent exchanges from
	// their replay cache, and every space stamps its restart incarnation
	// (1 + its crash count) into replies so a client talking to a
	// crashed-and-restarted space gets a fence error instead of trusting
	// resurrected addresses. Off reproduces the seed's fail-fast behavior.
	Recovery bool
}

// DefaultScenario derives a varied scenario from a seed: 2–4 spaces,
// 6–10 sessions, a moderate mix of every fault class, and a
// seed-dependent policy so lazy and eager paths soak too.
func DefaultScenario(seed uint64) Scenario {
	rng := rand.New(rand.NewSource(int64(splitmix64(seed ^ 0xdecafbad))))
	sc := Scenario{
		Seed:   seed,
		Spaces: 2 + rng.Intn(3),
		Ops:    6 + rng.Intn(5),
		Faults: Config{
			DropPermille:    20 + rng.Intn(40),
			DupPermille:     20 + rng.Intn(40),
			CorruptPermille: 10 + rng.Intn(30),
			DelayPermille:   20 + rng.Intn(40),
		},
		CrashPermille:     100,
		PartitionPermille: 100,
		CallTimeout:       100 * time.Millisecond,
	}
	switch rng.Intn(10) {
	case 0, 1:
		sc.Policy = core.PolicyEager
	case 2:
		sc.Policy = core.PolicyLazy
	default:
		sc.Policy = core.PolicySmart
	}
	sc.DisableDeltaShip = rng.Intn(8) == 0
	// Drawn last so the scenarios older seeds derive stay unchanged in
	// every other dimension.
	sc.Prefetch = rng.Intn(2) == 0
	// This draw selected the origin-side encode cache, which no longer
	// exists. It is kept and discarded so every later field — and every
	// recorded seed — derives the scenario it always did.
	_ = rng.Intn(4)
	// Appended at the end so every dimension older seeds derived stays
	// unchanged. A third of seeds run the concurrent multi-client
	// workload, with 2–4 clients sharing the ground tree.
	sc.Concurrent = rng.Intn(3) == 0
	if sc.Concurrent {
		sc.Spaces = 3 + rng.Intn(3)
	}
	// Drawn last: a third of seeds force a tiny streaming threshold
	// (128–1024 bytes) so the scenario's small closures split into
	// chunked streams and the fault mix lands on KindFetchChunk frames,
	// partially drained exchanges, and mid-stream teardown.
	if rng.Intn(3) == 0 {
		sc.StreamChunkBytes = 128 << rng.Intn(4)
	}
	// Drawn last, after every dimension older seeds derived: a third of
	// seeds run with transparent exchange recovery on, so the chaos corpus
	// soaks the retry/replay-cache/incarnation-fence machinery alongside
	// the seed's fail-fast behavior.
	sc.Recovery = rng.Intn(3) == 0
	return sc
}

// Result summarizes a completed scenario.
type Result struct {
	Ops        int // sessions attempted
	Errors     int // sessions that failed with an acceptable typed error
	Faults     uint64
	Crashes    int
	Partitions int  // ops run under an injected one-way partition
	Trusted    bool // value oracle stayed authoritative to the end
	Verified   int  // operations whose values were checked against the model

	// Recovery-machinery totals, summed over every space at the end of the
	// run (all zero unless Scenario.Recovery is set).
	Retries    uint64 // client retry attempts across all exchanges
	Replays    uint64 // origin replay-cache hits serving retried exchanges
	FenceTrips uint64 // incarnation fences tripped by restarted peers
}

// FailureError is a scenario failure: a real bug surfaced (invariant
// violation, wrong value on a fault-free operation, panic, or a space
// that could not be returned to a clean state). It carries everything
// needed to reproduce: the seed and the injected-fault schedule.
type FailureError struct {
	Seed   uint64
	Reason string
	Events []Event
}

func (e *FailureError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faultsim: seed %d: %s", e.Seed, e.Reason)
	if len(e.Events) > 0 {
		fmt.Fprintf(&b, "\n  injected schedule (%d faults):", len(e.Events))
		for _, ev := range e.Events {
			fmt.Fprintf(&b, "\n    %s", ev)
		}
	}
	return b.String()
}

// mnode mirrors one tree node in the pure-Go model.
type mnode struct {
	data        int64
	left, right *mnode
}

func (m *mnode) sum() int64 {
	if m == nil {
		return 0
	}
	return m.data + m.left.sum() + m.right.sum()
}

func (m *mnode) inc(delta int64) {
	if m == nil {
		return
	}
	m.data += delta
	m.left.inc(delta)
	m.right.inc(delta)
}

// graftPos walks the left spine to the first node without a left child —
// the same deterministic walk the graft handler performs remotely.
func (m *mnode) graftPos() *mnode {
	for m.left != nil {
		m = m.left
	}
	return m
}

// tree pairs a real root in the ground space with its model mirror.
type tree struct {
	root     core.Value
	model    *mnode
	poisoned bool // a failed mutating session left its real state unknown
}

// registry builds the TreeNode schema every scenario shares.
func registry() *types.Registry {
	r := types.NewRegistry()
	r.MustRegister(&types.Desc{
		ID:   nodeType,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: nodeType},
			{Name: "right", Kind: types.Ptr, Elem: nodeType},
			{Name: "data", Kind: types.Int64},
		},
	})
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return r
}

// buildTree grows a complete binary tree in rt's local heap (no network
// involved) and returns the root alongside its model mirror. Node values
// come from rng so different trees are distinguishable.
func buildTree(rt *core.Runtime, rng *rand.Rand, levels int) (core.Value, *mnode, error) {
	var build func(level int) (core.Value, *mnode, error)
	build = func(level int) (core.Value, *mnode, error) {
		if level == 0 {
			return core.NullPtr(nodeType), nil, nil
		}
		v, err := rt.NewObject(nodeType)
		if err != nil {
			return core.Value{}, nil, err
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return core.Value{}, nil, err
		}
		m := &mnode{data: int64(rng.Intn(1000))}
		if err := ref.SetInt("data", 0, m.data); err != nil {
			return core.Value{}, nil, err
		}
		lv, lm, err := build(level - 1)
		if err != nil {
			return core.Value{}, nil, err
		}
		if err := ref.SetPtr("left", 0, lv); err != nil {
			return core.Value{}, nil, err
		}
		m.left = lm
		rv, rm, err := build(level - 1)
		if err != nil {
			return core.Value{}, nil, err
		}
		if err := ref.SetPtr("right", 0, rv); err != nil {
			return core.Value{}, nil, err
		}
		m.right = rm
		return v, m, nil
	}
	return build(levels)
}

// sumTree walks a tree through the Ref API — on a remote space this is
// what drives demand fetching and its callbacks.
func sumTree(rt *core.Runtime, root core.Value) (int64, error) {
	if root.IsNullPtr() {
		return 0, nil
	}
	ref, err := rt.Deref(root)
	if err != nil {
		return 0, err
	}
	v, err := ref.Int("data", 0)
	if err != nil {
		return 0, err
	}
	for _, f := range []string{"left", "right"} {
		c, err := ref.Ptr(f, 0)
		if err != nil {
			return 0, err
		}
		s, err := sumTree(rt, c)
		if err != nil {
			return 0, err
		}
		v += s
	}
	return v, nil
}

func incTree(rt *core.Runtime, root core.Value, delta int64) error {
	if root.IsNullPtr() {
		return nil
	}
	ref, err := rt.Deref(root)
	if err != nil {
		return err
	}
	n, err := ref.Int("data", 0)
	if err != nil {
		return err
	}
	if err := ref.SetInt("data", 0, n+delta); err != nil {
		return err
	}
	for _, f := range []string{"left", "right"} {
		c, err := ref.Ptr(f, 0)
		if err != nil {
			return err
		}
		if err := incTree(rt, c, delta); err != nil {
			return err
		}
	}
	return nil
}

// registerProcs installs the workload's handlers on one runtime.
// nSpaces fixes the ring for nested calls (space i calls i%nSpaces+1).
func registerProcs(rt *core.Runtime, nSpaces int) error {
	procs := map[string]core.Handler{
		// sum: pure read — demand fetching, callbacks, closure transfer.
		"sum": func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
			total, err := sumTree(ctx.Runtime(), args[0])
			if err != nil {
				return nil, err
			}
			return []core.Value{core.Int64Value(total)}, nil
		},
		// inc: mutate every node, then return the new sum — exercises the
		// circulating modified data set and end-of-session write-back.
		"inc": func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
			r := ctx.Runtime()
			if err := incTree(r, args[0], args[1].Int64()); err != nil {
				return nil, err
			}
			total, err := sumTree(r, args[0])
			if err != nil {
				return nil, err
			}
			return []core.Value{core.Int64Value(total)}, nil
		},
		// graft: extended_malloc a node in the caller's space and link it
		// at the leftmost spine position.
		"graft": func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
			r := ctx.Runtime()
			nv, err := r.ExtendedMalloc(ctx.Caller(), nodeType)
			if err != nil {
				return nil, err
			}
			nref, err := r.Deref(nv)
			if err != nil {
				return nil, err
			}
			if err := nref.SetInt("data", 0, args[1].Int64()); err != nil {
				return nil, err
			}
			at := args[0]
			for {
				ref, err := r.Deref(at)
				if err != nil {
					return nil, err
				}
				l, err := ref.Ptr("left", 0)
				if err != nil {
					return nil, err
				}
				if l.IsNullPtr() {
					return nil, ref.SetPtr("left", 0, nv)
				}
				at = l
			}
		},
		// nest: hop the call around the space ring, then sum at the last
		// hop — deep nesting with the tree's data crossing every space.
		"nest": func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
			hops := args[1].Int64()
			if hops <= 0 {
				total, err := sumTree(ctx.Runtime(), args[0])
				if err != nil {
					return nil, err
				}
				return []core.Value{core.Int64Value(total)}, nil
			}
			next := ctx.Runtime().ID()%uint32(nSpaces) + 1
			return ctx.Call(next, "nest", []core.Value{args[0], core.Int64Value(hops - 1)})
		},
	}
	for name, h := range procs {
		if err := rt.Register(name, h); err != nil {
			return err
		}
	}
	return nil
}

// harness is the live state of one running scenario.
type harness struct {
	sc    Scenario
	rng   *rand.Rand
	chaos *Chaos
	reg   *types.Registry
	rts   []*core.Runtime // index 0 = ground (space 1)
	// crashes counts crash-restarts per space (index = space id - 1); a
	// Recovery scenario's restarted space comes back with incarnation
	// 1 + its crash count so clients can fence it. In the concurrent
	// workload each goroutine only ever touches its own slot.
	crashes []int
	trees   []*tree
	res     Result
}

func (h *harness) fail(format string, args ...any) *FailureError {
	return &FailureError{
		Seed:   h.sc.Seed,
		Reason: fmt.Sprintf(format, args...),
		Events: h.chaos.Events(),
	}
}

func (h *harness) ground() *core.Runtime { return h.rts[0] }

func (h *harness) newRuntime(id uint32) (*core.Runtime, error) {
	node, err := h.chaos.Attach(id)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		ID:               id,
		Node:             node,
		Registry:         h.reg,
		Policy:           h.sc.Policy,
		DisableDeltaShip: h.sc.DisableDeltaShip,
		Prefetch:         h.sc.Prefetch,
		// Concurrent scenarios keep speculation on the workload
		// goroutines so each client's frame stream stays a function of
		// its own seed stream.
		SyncPrefetch:     h.sc.Concurrent && h.sc.Prefetch,
		StreamChunkBytes: h.sc.StreamChunkBytes,
		Concurrent:       true,
		CallTimeout:      h.sc.CallTimeout,
		CheckInvariants:  true,
	}
	if h.sc.Recovery {
		// The budget must be generous relative to CallTimeout: recovery
		// nests, so a caller's CALL attempt times out not only when its
		// own frames fault but whenever the callee is stuck absorbing
		// faults of its own (each inner retry costs a full CallTimeout).
		// 30 call timeouts stays far inside the scenario deadline while
		// covering several levels of nested absorption. The incarnation
		// (1 + this space's crash count) lets every peer fence the space
		// after a crash-restart.
		opts.RetryBudget = 30 * h.sc.CallTimeout
		opts.MaxRetries = 25
		opts.Incarnation = uint32(1 + h.crashes[id-1])
	}
	rt, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if err := registerProcs(rt, h.sc.Spaces); err != nil {
		_ = rt.Close()
		return nil, err
	}
	return rt, nil
}

// Run executes one scenario. A nil error means the protocol survived the
// schedule: every fault either was transparent, or surfaced as a typed
// error with all spaces recovered to a clean state. A *FailureError
// means a real bug: invariant violation, silent corruption, a panic, or
// unrecoverable state.
func Run(sc Scenario) (res Result, err error) {
	if sc.Spaces < 2 {
		sc.Spaces = 2
	}
	if sc.Ops <= 0 {
		sc.Ops = 6
	}
	if sc.CallTimeout <= 0 {
		sc.CallTimeout = 100 * time.Millisecond
	}
	if sc.Concurrent {
		if sc.Spaces < 3 {
			sc.Spaces = 3 // at least two clients, or nothing overlaps
		}
		sc.Policy = core.PolicySmart
	}
	sc.Faults.Seed = sc.Seed

	h := &harness{
		sc:      sc,
		rng:     rand.New(rand.NewSource(int64(splitmix64(sc.Seed)))),
		reg:     registry(),
		crashes: make([]int, sc.Spaces),
	}
	// Registered first, so it runs last: after every space and the
	// network have closed.
	goroutines := runtime.NumGoroutine()
	defer func() {
		if err == nil && h.chaos != nil {
			if ferr := h.checkClosed(goroutines); ferr != nil {
				err = ferr
			}
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			err = h.fail("panic: %v", r)
		}
	}()

	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		return res, err
	}
	defer net.Close()
	h.chaos = New(net, sc.Faults)

	for i := 0; i < sc.Spaces; i++ {
		rt, err := h.newRuntime(uint32(i + 1))
		if err != nil {
			return res, err
		}
		h.rts = append(h.rts, rt)
	}
	defer func() {
		for _, rt := range h.rts {
			_ = rt.Close()
		}
	}()
	// Runs before the closes above (LIFO): fold every space's recovery
	// counters into the result so soaks and the chaos CLI can report how
	// much work the retry/replay/fence machinery actually did.
	defer func() {
		for _, rt := range h.rts {
			s := rt.Stats()
			res.Retries += s.Retries
			res.Replays += s.DedupReplays
			res.FenceTrips += s.FenceTrips
		}
	}()

	h.res.Trusted = true
	if sc.Concurrent {
		if ferr := h.runConcurrent(); ferr != nil {
			return h.res, ferr
		}
		return h.res, nil
	}

	// Seed data: a couple of ground-owned trees, built locally (no
	// network traffic, so no faults can touch the baseline).
	for i := 0; i < 2; i++ {
		root, model, err := buildTree(h.ground(), h.rng, 3+h.rng.Intn(2))
		if err != nil {
			return res, err
		}
		h.trees = append(h.trees, &tree{root: root, model: model})
	}

	for op := 0; op < sc.Ops; op++ {
		if ferr := h.runOp(op); ferr != nil {
			return h.res, ferr
		}
	}
	h.res.Faults = h.chaos.Total()
	return h.res, nil
}

// pickTree returns a healthy tree, growing a replacement locally if every
// existing one was poisoned by a failed mutating session.
func (h *harness) pickTree() (*tree, error) {
	healthy := h.trees[:0:0]
	for _, t := range h.trees {
		if !t.poisoned {
			healthy = append(healthy, t)
		}
	}
	if len(healthy) == 0 {
		root, model, err := buildTree(h.ground(), h.rng, 3)
		if err != nil {
			return nil, err
		}
		nt := &tree{root: root, model: model}
		h.trees = append(h.trees, nt)
		return nt, nil
	}
	return healthy[h.rng.Intn(len(healthy))], nil
}

// runOp runs one session (1–3 calls) plus its pre-op crash/partition
// schedule and post-op checks. Only *FailureError (or a setup error)
// comes back; protocol-level typed errors are the expected currency.
func (h *harness) runOp(op int) error {
	rng := h.rng
	h.res.Ops++

	// Crash-restart a non-ground space between sessions.
	if h.sc.Spaces > 1 && rng.Intn(1000) < h.sc.CrashPermille {
		idx := 1 + rng.Intn(h.sc.Spaces-1)
		_ = h.rts[idx].Close()
		h.crashes[idx]++
		rt, err := h.newRuntime(uint32(idx + 1))
		if err != nil {
			return h.fail("op %d: re-attach space %d after crash: %v", op, idx+1, err)
		}
		h.rts[idx] = rt
		h.res.Crashes++
	}

	// One-way partition for the duration of this op.
	partFrom, partTo := uint32(0), uint32(0)
	if rng.Intn(1000) < h.sc.PartitionPermille {
		a := uint32(1 + rng.Intn(h.sc.Spaces))
		b := uint32(1 + rng.Intn(h.sc.Spaces))
		if a != b {
			partFrom, partTo = a, b
			h.res.Partitions++
			h.chaos.PartitionOneWay(partFrom, partTo, true)
			defer h.chaos.PartitionOneWay(partFrom, partTo, false)
		}
	}

	faultsBefore := h.chaos.Total()
	ground := h.ground()

	var opTrees []*tree
	opMutates := false
	opErr := ground.BeginSession()
	if opErr == nil {
		nCalls := 1 + rng.Intn(3)
		for c := 0; c < nCalls && opErr == nil; c++ {
			tr, err := h.pickTree()
			if err != nil {
				return h.fail("op %d: grow replacement tree: %v", op, err)
			}
			opTrees = append(opTrees, tr)
			target := uint32(2 + rng.Intn(h.sc.Spaces-1))
			switch rng.Intn(5) {
			case 0: // read
				var res []core.Value
				res, opErr = ground.Call(target, "sum", []core.Value{tr.root})
				if opErr == nil && h.res.Trusted {
					h.res.Verified++
					if got, want := res[0].Int64(), tr.model.sum(); got != want {
						return h.fail("op %d: sum = %d, want %d (tree silently corrupted)", op, got, want)
					}
				}
			case 1: // mutate
				opMutates = true
				delta := int64(1 + rng.Intn(9))
				var res []core.Value
				res, opErr = ground.Call(target, "inc", []core.Value{tr.root, core.Int64Value(delta)})
				if opErr == nil {
					tr.model.inc(delta)
					if h.res.Trusted {
						h.res.Verified++
						if got, want := res[0].Int64(), tr.model.sum(); got != want {
							return h.fail("op %d: inc sum = %d, want %d", op, got, want)
						}
					}
				}
			case 2: // extended_malloc + link
				opMutates = true
				val := int64(rng.Intn(1000))
				_, opErr = ground.Call(target, "graft", []core.Value{tr.root, core.Int64Value(val)})
				if opErr == nil {
					tr.model.graftPos().left = &mnode{data: val}
				}
			case 3: // nested ring call
				hops := int64(1 + rng.Intn(h.sc.Spaces))
				var res []core.Value
				res, opErr = ground.Call(target, "nest", []core.Value{tr.root, core.Int64Value(hops)})
				if opErr == nil && h.res.Trusted {
					h.res.Verified++
					if got, want := res[0].Int64(), tr.model.sum(); got != want {
						return h.fail("op %d: nested sum = %d, want %d", op, got, want)
					}
				}
			case 4: // extended_malloc / extended_free round trip, unlinked
				opMutates = true
				var v core.Value
				v, opErr = ground.ExtendedMalloc(target, nodeType)
				if opErr == nil {
					var ref core.Ref
					ref, opErr = ground.Deref(v)
					if opErr == nil {
						opErr = ref.SetInt("data", 0, 77)
					}
					if opErr == nil && rng.Intn(2) == 0 {
						opErr = ground.ExtendedFree(v)
					}
				}
			}
		}
	}
	if opErr == nil {
		opErr = ground.EndSession()
	}

	if opErr != nil {
		return h.recoverOp(op, opErr, faultsBefore, opTrees, opMutates, partFrom != 0)
	}

	// Clean end: every space must be idle-clean and the network
	// coherency-consistent — regardless of what faults were injected
	// (they were all absorbed or retransparent).
	if ferr := h.checkAllIdle(op, "after clean session end"); ferr != nil {
		return ferr
	}
	if err := core.CheckNetworkInvariants(nil, h.rts); err != nil {
		return h.fail("op %d: network invariants after clean end: %v", op, err)
	}
	return nil
}

// recoverOp classifies a failed operation and drives recovery. The error
// is acceptable only if it is an ordinary typed error AND something
// abnormal actually happened to this op (an injected fault, a partition,
// or a tree already poisoned by an earlier failure); a fault-free error
// is a bug. Invariant violations are always bugs.
func (h *harness) recoverOp(op int, opErr error, faultsBefore uint64, opTrees []*tree, opMutates, partitioned bool) error {
	if errors.Is(opErr, core.ErrInvariant) {
		return h.fail("op %d: invariant violation: %v", op, opErr)
	}
	poisonedInput := false
	for _, t := range opTrees {
		if t.poisoned {
			poisonedInput = true
		}
	}
	// An incarnation fence is the recovery machinery doing its job: a
	// crash-restart is abnormal even though it is not an injected chaos
	// fault, so a fence error is acceptable whenever some space actually
	// crashed this run. Without a crash it is a bug like any other
	// fault-free failure.
	fenced := errors.Is(opErr, core.ErrOriginRestarted) && h.res.Crashes > 0
	if h.chaos.Total() == faultsBefore && !partitioned && !poisonedInput && !fenced {
		return h.fail("op %d: failed with no fault injected: %v", op, opErr)
	}
	if os.Getenv("CHAOS_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "seed %d op %d failed: %v\n", h.sc.Seed, op, opErr)
	}
	h.res.Errors++
	if opMutates {
		// The session died with mutations possibly half-applied; the
		// trees it touched can no longer be checked against the model.
		h.res.Trusted = false
		for _, t := range opTrees {
			t.poisoned = true
		}
	}

	// Let any handler still blocked on a partitioned or dropped round
	// trip hit its own deadline and unwind, then tear every space down
	// and verify the network returns to a clean state. Frames still in
	// flight can re-populate a space after its abort, so abort-and-check
	// retries a few times before declaring the state unrecoverable.
	time.Sleep(3 * h.sc.CallTimeout)
	h.chaos.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rt := range h.rts {
			rt.AbortSession()
		}
		ferr := h.checkAllIdle(op, "after abort recovery")
		if ferr == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return ferr
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (h *harness) checkAllIdle(op int, when string) *FailureError {
	for _, rt := range h.rts {
		if err := rt.CheckIdleInvariants(); err != nil {
			return h.fail("op %d: space %d %s: %v", op, rt.ID(), when, err)
		}
		// A quiescent space must have drained its in-flight fetch registry
		// and installed or dropped every frame its background receivers
		// parked: a leaked entry means a dropped or corrupted (possibly
		// speculative) exchange wedged a (page, origin) slot forever.
		if n, m := rt.InflightFetches(), rt.ParkedFrames(); n != 0 || m != 0 {
			return h.fail("op %d: space %d %s: %d in-flight fetch registry entries, %d parked frames leaked",
				op, rt.ID(), when, n, m)
		}
	}
	return nil
}

// checkClosed is the lifecycle oracle of a scenario's end, run once every
// space and the network have closed: every pooled frame a runtime
// received was released, and no goroutine the scenario started outlives
// it (given a few seconds to unwind).
func (h *harness) checkClosed(goroutines int) *FailureError {
	if n := h.chaos.HeldFrames(); n != 0 {
		return h.fail("%d pooled frames still referenced after every space closed", n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			return h.fail("%d goroutines outlive the closed scenario", runtime.NumGoroutine()-goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
