package core

import (
	"fmt"
	"math/rand"

	"smartrpc/internal/arch"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
)

// The equivalence property: an arbitrary script of reads, writes, and
// re-linkings executed by remote procedures against pointer arguments
// must leave the owner's heap in exactly the state a plain in-process
// model reaches — across nested RPCs, repeated sessions, and every
// policy-relevant configuration. This is the end-to-end check of the
// swizzling + caching + coherency machinery.

// opKind enumerates script operations.
type opKind int

const (
	opSetData opKind = iota + 1
	opLinkLeft
	opLinkRight
	opReadData // result checked against the model mid-script
)

type scriptOp struct {
	kind   opKind
	target int   // node index
	other  int   // second node index for links (-1 = null)
	value  int64 // for opSetData
}

// model is the plain-Go reference implementation.
type model struct {
	data        []int64
	left, right []int // node index or -1
}

func newModel(k int) *model {
	m := &model{data: make([]int64, k), left: make([]int, k), right: make([]int, k)}
	for i := range m.left {
		m.data[i] = int64(i + 1)
		m.left[i] = -1
		m.right[i] = -1
	}
	return m
}

func (m *model) apply(op scriptOp) int64 {
	switch op.kind {
	case opSetData:
		m.data[op.target] = op.value
	case opLinkLeft:
		m.left[op.target] = op.other
	case opLinkRight:
		m.right[op.target] = op.other
	case opReadData:
		return m.data[op.target]
	}
	return 0
}

func randomScript(rng *rand.Rand, k, n int) []scriptOp {
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		op := scriptOp{
			kind:   opKind(rng.Intn(4) + 1),
			target: rng.Intn(k),
			other:  rng.Intn(k+1) - 1, // -1 = null
			value:  rng.Int63n(1 << 40),
		}
		ops = append(ops, op)
	}
	return ops
}

// registerScriptOps installs the per-op remote procedures on rt.
func registerScriptOps(t *testing.T, rt *Runtime) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.Register("setData", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		return nil, ref.SetInt("data", 0, args[1].Int64())
	}))
	must(rt.Register("linkLeft", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		return nil, ref.SetPtr("left", 0, args[1])
	}))
	must(rt.Register("linkRight", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		return nil, ref.SetPtr("right", 0, args[1])
	}))
	must(rt.Register("readData", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(v)}, nil
	}))
	// chainOp forwards an op to a third space (nested RPC), exercising
	// dirty-set migration along the control path.
	must(rt.Register("chainOp", func(ctx *Ctx, args []Value) ([]Value, error) {
		proc := args[0]
		rest := args[2:]
		return ctx.Call(uint32(args[1].Int64()), procName(proc.Int64()), rest)
	}))
}

func procName(code int64) string {
	switch opKind(code) {
	case opSetData:
		return "setData"
	case opLinkLeft:
		return "linkLeft"
	case opLinkRight:
		return "linkRight"
	default:
		return "readData"
	}
}

// verifyAgainstModel compares every node in the owner's heap to the model.
func verifyAgainstModel(t *testing.T, owner *Runtime, nodes []Value, m *model) {
	t.Helper()
	addrToIdx := make(map[uint32]int, len(nodes))
	for i, v := range nodes {
		addrToIdx[uint32(v.Addr)] = i
	}
	for i, v := range nodes {
		ref, err := owner.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			t.Fatal(err)
		}
		if d != m.data[i] {
			t.Errorf("node %d data = %d, model %d", i, d, m.data[i])
		}
		for _, side := range []string{"left", "right"} {
			p, err := ref.Ptr(side, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := m.left[i]
			if side == "right" {
				want = m.right[i]
			}
			if want == -1 {
				if !p.IsNullPtr() {
					t.Errorf("node %d %s = %#x, model null", i, side, uint32(p.Addr))
				}
				continue
			}
			// Under the lazy policy pointer values carry only the long
			// pointer; normalize to the owner-space address.
			addr := uint32(p.Addr)
			if addr == 0 && p.LP.Space == owner.ID() {
				addr = uint32(p.LP.Addr)
			}
			got, ok := addrToIdx[addr]
			if !ok || got != want {
				t.Errorf("node %d %s -> node %d (ok=%v), model %d", i, side, got, ok, want)
			}
		}
	}
}

func runScriptProperty(t *testing.T, seed int64, nested bool, mut func(id uint32, o *Options)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const k = 12
	const nOps = 60

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
		o := Options{ID: id, Node: node, Registry: reg}
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
	owner := mk(1)
	worker := mk(2)
	registerScriptOps(t, worker)
	var third *Runtime
	if nested {
		third = mk(3)
		registerScriptOps(t, third)
	}

	// Node pool in the owner's heap.
	nodes := make([]Value, k)
	for i := range nodes {
		v, err := owner.NewObject(nodeType)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := owner.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		nodes[i] = v
	}
	m := newModel(k)

	// Two sessions back to back: invalidation between them must not lose
	// or resurrect state.
	for sess := 0; sess < 2; sess++ {
		script := randomScript(rng, k, nOps)
		if err := owner.BeginSession(); err != nil {
			t.Fatal(err)
		}
		for opIdx, op := range script {
			args := []Value{nodes[op.target]}
			switch op.kind {
			case opSetData:
				args = append(args, Int64Value(op.value))
			case opLinkLeft, opLinkRight:
				if op.other == -1 {
					args = append(args, NullPtr(nodeType))
				} else {
					args = append(args, nodes[op.other])
				}
			}
			var res []Value
			var err error
			if nested && opIdx%3 == 0 {
				// Route through the worker to the third space.
				chainArgs := append([]Value{Int64Value(int64(op.kind)), Int64Value(3)}, args...)
				res, err = owner.Call(2, "chainOp", chainArgs)
			} else {
				res, err = owner.Call(2, procName(int64(op.kind)), args)
			}
			if err != nil {
				t.Fatalf("session %d op %d (%v): %v", sess, opIdx, op.kind, err)
			}
			want := m.apply(op)
			if op.kind == opReadData {
				if len(res) != 1 || res[0].Int64() != want {
					t.Fatalf("session %d op %d: remote read %v, model %d", sess, opIdx, res, want)
				}
			}
		}
		if err := owner.EndSession(); err != nil {
			t.Fatal(err)
		}
		verifyAgainstModel(t, owner, nodes, m)
	}
}

func TestPropertyRemoteScriptEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScriptProperty(t, seed, false, nil)
		})
	}
}

func TestPropertyNestedScriptEquivalence(t *testing.T) {
	for seed := int64(100); seed <= 104; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScriptProperty(t, seed, true, nil)
		})
	}
}

func TestPropertySmallPages(t *testing.T) {
	runScriptProperty(t, 7, true, func(id uint32, o *Options) { o.PageSize = 64 })
}

func TestPropertyTinyClosure(t *testing.T) {
	runScriptProperty(t, 9, false, func(id uint32, o *Options) { o.ClosureSize = 1 })
}

func TestPropertyHugeClosure(t *testing.T) {
	runScriptProperty(t, 11, false, func(id uint32, o *Options) { o.ClosureSize = 1 << 24 })
}

func TestPropertyHeterogeneousScript(t *testing.T) {
	runScriptProperty(t, 13, true, func(id uint32, o *Options) {
		switch id {
		case 1:
			o.Profile = sparc32Profile()
		case 2:
			o.Profile = alpha64Profile()
		default:
			o.Profile = m68k32Profile()
		}
	})
}

func TestPropertyDFSTraversal(t *testing.T) {
	runScriptProperty(t, 17, false, func(id uint32, o *Options) { o.Traversal = TraverseDFS })
}

// Profile helpers keep the property-test table terse.
func sparc32Profile() arch.Profile { return arch.SPARC32() }
func alpha64Profile() arch.Profile { return arch.Alpha64() }
func m68k32Profile() arch.Profile  { return arch.M68K32() }

// TestPropertySoak runs many more randomized scripts; skipped in -short.
func TestPropertySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for seed := int64(1000); seed < 1040; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScriptProperty(t, seed, seed%2 == 0, func(id uint32, o *Options) {
				switch seed % 3 {
				case 0:
					o.PageSize = 128
				case 1:
					o.ClosureSize = 64
				}
			})
		})
	}
}

// TestPropertyPolicyAgreement runs the same script under all three
// transfer policies; each must match the model exactly (the policies are
// performance strategies, never semantics).
func TestPropertyPolicyAgreement(t *testing.T) {
	for _, pol := range []Policy{PolicySmart, PolicyEager, PolicyLazy} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			runScriptProperty(t, 21, false, func(id uint32, o *Options) { o.Policy = pol })
		})
	}
}

// TestPropertyOverTCP runs a randomized script with every message moving
// over real loopback TCP connections.
func TestPropertyOverTCP(t *testing.T) {
	// Every node listens on a port of its own choosing and learns the
	// address of a peer that dials it from the peer's first frame. So
	// the third space starts first, the worker (which chains calls to it)
	// knows its address, and the owner knows both; the owner reaches the
	// third space once before the script, so the third space can fetch
	// from the owner. A stalled exchange fails with ErrDeadline instead of
	// hanging the package.
	reg := newTestRegistry(t)
	book := map[uint32]string{}
	mk := func(id uint32) *Runtime {
		node, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		book[id] = node.Addr()
		rt, err := New(Options{ID: id, Node: node, Registry: reg, CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	third := mk(3)
	worker := mk(2)
	owner := mk(1)
	registerScriptOps(t, worker)
	registerScriptOps(t, third)

	const k = 10
	nodes := make([]Value, k)
	for i := range nodes {
		v, err := owner.NewObject(nodeType)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := owner.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		nodes[i] = v
	}
	m := newModel(k)
	rng := rand.New(rand.NewSource(31))
	script := randomScript(rng, k, 40)
	if err := owner.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if res, err := owner.Call(3, "readData", []Value{nodes[0]}); err != nil || res[0].Int64() != 1 {
		t.Fatalf("first read from the third space: %v, %v", res, err)
	}
	for opIdx, op := range script {
		args := []Value{nodes[op.target]}
		switch op.kind {
		case opSetData:
			args = append(args, Int64Value(op.value))
		case opLinkLeft, opLinkRight:
			if op.other == -1 {
				args = append(args, NullPtr(nodeType))
			} else {
				args = append(args, nodes[op.other])
			}
		}
		var res []Value
		var err error
		if opIdx%4 == 0 {
			chainArgs := append([]Value{Int64Value(int64(op.kind)), Int64Value(3)}, args...)
			res, err = owner.Call(2, "chainOp", chainArgs)
		} else {
			res, err = owner.Call(2, procName(int64(op.kind)), args)
		}
		if err != nil {
			t.Fatalf("op %d over TCP: %v", opIdx, err)
		}
		want := m.apply(op)
		if op.kind == opReadData && res[0].Int64() != want {
			t.Fatalf("op %d over TCP: read %d, model %d", opIdx, res[0].Int64(), want)
		}
	}
	if err := owner.EndSession(); err != nil {
		t.Fatal(err)
	}
	verifyAgainstModel(t, owner, nodes, m)
}
