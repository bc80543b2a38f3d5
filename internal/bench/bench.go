// Package bench is the experiment harness that regenerates the paper's
// evaluation (§4): the three-way method comparison (Fig. 4), the callback
// counts (Fig. 5), the closure-size sweep (Fig. 6), the update-performance
// sweep (Fig. 7), and the data allocation table illustration (Table 1).
//
// All timings are virtual: every message is charged to a deterministic
// netsim cost model calibrated to the paper's testbed (SPARCstations on
// 10 Mbps Ethernet), so results reproduce bit-for-bit on any host and the
// curves can be compared to the paper's figures directly.
package bench

import (
	"errors"
	"fmt"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
)

// NodeType is the tree node's type ID in the harness registry.
const NodeType types.ID = 1

// Space IDs used by the harness.
const (
	CallerID uint32 = 1
	CalleeID uint32 = 2
)

// SearchProc is the remote procedure name registered on the callee.
const SearchProc = "searchTree"

// NewRegistry builds the experiment schema: the paper's 16-byte tree node
// (two 4-byte pointers and 8 bytes of data on the 32-bit profile).
func NewRegistry() *types.Registry {
	r := types.NewRegistry()
	r.MustRegister(&types.Desc{
		ID:   NodeType,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: NodeType},
			{Name: "right", Kind: types.Ptr, Elem: NodeType},
			{Name: "data", Kind: types.Int64},
		},
	})
	return r
}

// TreeConfig parameterizes one tree-search experiment run.
type TreeConfig struct {
	// Policy selects smart/eager/lazy.
	Policy core.Policy
	// Nodes is the complete binary tree size (paper: 32,767).
	Nodes int
	// ClosureSize is the eager-transfer budget in bytes (paper: 8,192).
	ClosureSize int
	// AccessRatio is the fraction of nodes visited depth-first in the
	// callee (Fig. 4's X axis).
	AccessRatio float64
	// Update makes the callee write each visited node (Fig. 7).
	Update bool
	// Repeats repeats the full search within one session (Fig. 6 uses 10
	// to exercise cache reuse).
	Repeats int
	// PageSize overrides the simulated page size.
	PageSize int
	// AllocPolicy, Traversal, Coherence select the ablations.
	AllocPolicy swizzle.AllocPolicy
	Traversal   core.Traversal
	Coherence   core.Coherence
	// Model is the network cost model; zero value = free network (tests).
	Model netsim.Model
	// DisableDeltaShip reverts the coherency path to full shipping (the
	// paper's modeled protocol), for measuring the delta-shipping win.
	DisableDeltaShip bool
}

func (c *TreeConfig) fill() error {
	if c.Policy == 0 {
		c.Policy = core.PolicySmart
	}
	if c.Nodes <= 0 {
		c.Nodes = 32767
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 8192
	}
	if c.AccessRatio < 0 || c.AccessRatio > 1 {
		return fmt.Errorf("bench: access ratio %v out of [0,1]", c.AccessRatio)
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	return nil
}

// TreeResult is the outcome of one run.
type TreeResult struct {
	// Traffic is the whole RPC session's virtual time and traffic.
	Traffic
	// Callbacks is the number of data-request messages the callee issued
	// (Fig. 5's Y axis). For the lazy method this counts per-dereference
	// callbacks; for the smart method, page-fault fetches.
	Callbacks uint64
	// CohItemBytes is the encoded payload bytes of coherency-path data
	// items that actually crossed the wire, summed over all spaces
	// (deltas contribute their delta size, elided items nothing).
	CohItemBytes uint64
	// CohItemsShipped / CohDeltaItems / CohItemsSkipped break the
	// coherency-path items down: transmitted (full or delta), the delta
	// subset, and elided entirely.
	CohItemsShipped, CohDeltaItems, CohItemsSkipped uint64
	// Faults is the callee's access-violation count.
	Faults uint64
	// Visited is the number of nodes the callee actually visited.
	Visited int64
	// Sum is the checksum returned by the search (validates correctness).
	Sum int64
}

// RunTree executes one tree-search experiment: the caller builds the tree,
// the callee searches (and optionally updates) it remotely, and the
// session is torn down, all under the virtual clock.
func RunTree(cfg TreeConfig) (TreeResult, error) {
	if err := cfg.fill(); err != nil {
		return TreeResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return TreeResult{}, err
	}
	defer r.close()
	caller, callee, root, err := r.searchPair(core.Options{
		Policy:           cfg.Policy,
		ClosureSize:      cfg.ClosureSize,
		PageSize:         cfg.PageSize,
		AllocPolicy:      cfg.AllocPolicy,
		Traversal:        cfg.Traversal,
		Coherence:        cfg.Coherence,
		DisableDeltaShip: cfg.DisableDeltaShip,
	}, cfg.Nodes)
	if err != nil {
		return TreeResult{}, err
	}
	r.reset()
	visited, sum, err := search(caller, root, int64(cfg.AccessRatio*float64(cfg.Nodes)), cfg.Update, cfg.Repeats)
	if err != nil {
		return TreeResult{}, err
	}
	st, cst := callee.Stats(), caller.Stats()
	out := TreeResult{
		Traffic:         r.traffic(),
		Callbacks:       st.FetchesSent,
		CohItemBytes:    st.CohItemBytes + cst.CohItemBytes,
		CohItemsShipped: st.CohItemsShipped + cst.CohItemsShipped,
		CohDeltaItems:   st.CohDeltaItems + cst.CohDeltaItems,
		CohItemsSkipped: st.CohItemsSkipped + cst.CohItemsSkipped,
		Faults:          st.Faults,
		Visited:         visited,
		Sum:             sum,
	}
	if cfg.Policy == core.PolicyLazy && cfg.Update {
		// Lazy updates go home immediately; count them as callbacks too,
		// like the extra communication they are.
		out.Callbacks = st.FetchesSent + st.WriteBackMsgs
	}
	return out, nil
}

// BuildTree allocates a complete binary tree with n nodes (n = 2^k - 1) in
// rt's heap; node data is the preorder index starting at 1. It returns the
// root pointer value.
func BuildTree(rt *core.Runtime, n int) (core.Value, error) {
	if n <= 0 {
		return core.Value{}, errors.New("bench: tree size must be positive")
	}
	levels := 0
	for (1 << (levels + 1)) <= n+1 {
		levels++
	}
	if (1<<levels)-1 != n {
		return core.Value{}, fmt.Errorf("bench: %d is not a complete tree size (2^k-1)", n)
	}
	counter := int64(0)
	var build func(level int) (core.Value, error)
	build = func(level int) (core.Value, error) {
		if level == 0 {
			return core.NullPtr(NodeType), nil
		}
		v, err := rt.NewObject(NodeType)
		if err != nil {
			return core.Value{}, err
		}
		counter++
		ref, err := rt.Deref(v)
		if err != nil {
			return core.Value{}, err
		}
		if err := ref.SetInt("data", 0, counter); err != nil {
			return core.Value{}, err
		}
		l, err := build(level - 1)
		if err != nil {
			return core.Value{}, err
		}
		if err := ref.SetPtr("left", 0, l); err != nil {
			return core.Value{}, err
		}
		r, err := build(level - 1)
		if err != nil {
			return core.Value{}, err
		}
		if err := ref.SetPtr("right", 0, r); err != nil {
			return core.Value{}, err
		}
		return v, nil
	}
	return build(levels)
}

// RegisterSearch installs the experiment's remote procedure on the callee:
// a depth-first traversal that visits up to `budget` nodes, optionally
// updating each visited node's data (doubling it), and returns the visit
// count and the running checksum. This is exactly §4.1's workload: "the
// nodes of the tree were visited in a depth-first manner until the ratio
// of visited nodes to the total reached the ratio indicated".
func RegisterSearch(callee *core.Runtime) error {
	return callee.Register(SearchProc, func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("searchTree: want 3 args, got %d", len(args))
		}
		rt := ctx.Runtime()
		budget := args[1].Int64()
		update := args[2].Bool()
		var visited, sum int64
		var walk func(v core.Value) error
		walk = func(v core.Value) error {
			if v.IsNullPtr() || visited >= budget {
				return nil
			}
			ref, err := rt.Deref(v)
			if err != nil {
				return err
			}
			visited++
			d, err := ref.Int("data", 0)
			if err != nil {
				return err
			}
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
			if err := walk(l); err != nil {
				return err
			}
			if visited >= budget {
				return nil
			}
			r, err := ref.Ptr("right", 0)
			if err != nil {
				return err
			}
			return walk(r)
		}
		if err := walk(args[0]); err != nil {
			return nil, err
		}
		return []core.Value{core.Int64Value(visited), core.Int64Value(sum)}, nil
	})
}
