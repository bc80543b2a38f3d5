package bench

import (
	"fmt"
	"strings"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// DefaultRatios is the access-ratio sweep used by Figures 4, 5, and 7.
var DefaultRatios = []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Fig4Row is one X position of Figure 4: processing time by method.
type Fig4Row struct {
	Ratio              float64
	Eager, Lazy, Smart time.Duration
}

// Fig4 reproduces Figure 4: average processing time of one RPC that
// searches a 32,767-node tree, as a function of the access ratio, for the
// fully eager, fully lazy, and proposed (smart, closure 8192) methods.
func Fig4(model netsim.Model, nodes, closure int, ratios []float64) ([]Fig4Row, error) {
	if ratios == nil {
		ratios = DefaultRatios
	}
	rows := make([]Fig4Row, 0, len(ratios))
	for _, r := range ratios {
		row := Fig4Row{Ratio: r}
		for _, pol := range []core.Policy{core.PolicyEager, core.PolicyLazy, core.PolicySmart} {
			res, err := RunTree(TreeConfig{
				Policy:      pol,
				Nodes:       nodes,
				ClosureSize: closure,
				AccessRatio: r,
				Model:       model,
			})
			if err != nil {
				return nil, fmt.Errorf("fig4 ratio %v policy %v: %w", r, pol, err)
			}
			switch pol {
			case core.PolicyEager:
				row.Eager = res.Time
			case core.PolicyLazy:
				row.Lazy = res.Time
			case core.PolicySmart:
				row.Smart = res.Time
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5Row is one X position of Figure 5: callback counts.
type Fig5Row struct {
	Ratio       float64
	Lazy, Smart uint64
}

// Fig5 reproduces Figure 5: the number of callbacks issued by the callee
// for the fully lazy and proposed methods, over the same sweep as Fig. 4.
func Fig5(model netsim.Model, nodes, closure int, ratios []float64) ([]Fig5Row, error) {
	if ratios == nil {
		ratios = DefaultRatios
	}
	rows := make([]Fig5Row, 0, len(ratios))
	for _, r := range ratios {
		row := Fig5Row{Ratio: r}
		for _, pol := range []core.Policy{core.PolicyLazy, core.PolicySmart} {
			res, err := RunTree(TreeConfig{
				Policy:      pol,
				Nodes:       nodes,
				ClosureSize: closure,
				AccessRatio: r,
				Model:       model,
			})
			if err != nil {
				return nil, fmt.Errorf("fig5 ratio %v policy %v: %w", r, pol, err)
			}
			if pol == core.PolicyLazy {
				row.Lazy = res.Callbacks
			} else {
				row.Smart = res.Callbacks
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DefaultClosureSizes is the closure sweep of Figure 6 (bytes).
var DefaultClosureSizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144}

// DefaultTreeSizes is Figure 6's family of curves.
var DefaultTreeSizes = []int{16383, 32767, 65535}

// Fig6Cell is one (tree size, closure size) measurement.
type Fig6Cell struct {
	Nodes   int
	Closure int
	Time    time.Duration
}

// Fig6 reproduces Figure 6: processing time of a session performing 10
// repeated full searches of the tree, as a function of the closure size,
// for three tree sizes. Repetition exercises cache reuse: "nodes in the
// upper level will be reused in the subsequent searches".
func Fig6(model netsim.Model, treeSizes, closures []int, repeats int) ([]Fig6Cell, error) {
	if treeSizes == nil {
		treeSizes = DefaultTreeSizes
	}
	if closures == nil {
		closures = DefaultClosureSizes
	}
	if repeats <= 0 {
		repeats = 10
	}
	var cells []Fig6Cell
	for _, n := range treeSizes {
		for _, cs := range closures {
			res, err := RunTree(TreeConfig{
				Policy:      core.PolicySmart,
				Nodes:       n,
				ClosureSize: cs,
				AccessRatio: 1.0,
				Repeats:     repeats,
				Model:       model,
			})
			if err != nil {
				return nil, fmt.Errorf("fig6 nodes %d closure %d: %w", n, cs, err)
			}
			cells = append(cells, Fig6Cell{Nodes: n, Closure: cs, Time: res.Time})
		}
	}
	return cells, nil
}

// Fig7Row is one X position of Figure 7: update vs read-only cost.
type Fig7Row struct {
	Ratio               float64
	Updated, NotUpdated time.Duration
}

// Fig7 reproduces Figure 7: processing time when the visited nodes are
// updated versus merely visited, over the access-ratio sweep, with the
// proposed method at closure 8192. Delta shipping is disabled: the
// figure reproduces the paper's protocol, which re-transmits full
// encodings on every crossing (DeltaShipAblation measures the
// difference).
func Fig7(model netsim.Model, nodes, closure int, ratios []float64) ([]Fig7Row, error) {
	if ratios == nil {
		ratios = DefaultRatios
	}
	rows := make([]Fig7Row, len(ratios))
	for i, p := range fig7Points(model, nodes, closure, ratios) {
		res, err := RunTree(p.Cfg)
		if err != nil {
			return nil, fmt.Errorf("fig7 ratio %v %s: %w", p.Cfg.AccessRatio, p.Name, err)
		}
		row := &rows[i/2]
		row.Ratio = p.Cfg.AccessRatio
		if p.Cfg.Update {
			row.Updated = res.Time
		} else {
			row.NotUpdated = res.Time
		}
	}
	return rows, nil
}

// fig7Points is Figure 7's sweep: the updating and the read-only search
// at each access ratio.
func fig7Points(model netsim.Model, nodes, closure int, ratios []float64) []Point[TreeConfig] {
	var pts []Point[TreeConfig]
	for _, r := range ratios {
		for _, update := range []bool{true, false} {
			name := "smart-readonly"
			if update {
				name = "smart-update"
			}
			pts = append(pts, Point[TreeConfig]{name, TreeConfig{Policy: core.PolicySmart, Nodes: nodes,
				ClosureSize: closure, AccessRatio: r, Update: update, Model: model, DisableDeltaShip: true}})
		}
	}
	return pts
}

// Table1 reproduces the paper's Table 1: the data allocation table of a
// callee just after two long pointers A and B have been swizzled into one
// protected page. It returns a rendered table.
func Table1() (string, error) {
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		return "", err
	}
	reg := NewRegistry()
	tb := swizzle.New(sp, reg, CalleeID, swizzle.PolicyPerOrigin)
	ptrA := wire.LongPtr{Space: CallerID, Addr: 0xA000, Type: NodeType}
	ptrB := wire.LongPtr{Space: CallerID, Addr: 0xB000, Type: NodeType}
	if _, _, err := tb.Swizzle(ptrA); err != nil {
		return "", err
	}
	if _, _, err := tb.Swizzle(ptrB); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-22s %s\n", "page #", "offset within the page", "long pointer")
	names := map[wire.LongPtr]string{ptrA: "A", ptrB: "B"}
	for _, e := range tb.Entries() {
		pn := sp.PageOf(e.Addr)
		fmt.Fprintf(&b, "%-8d %-22d %s (%s)\n", pn, e.Addr-sp.PageBase(pn), names[e.LP], e.LP)
	}
	return b.String(), nil
}

// Ablations beyond the paper's figures ----------------------------------

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Name string
	Traffic
	Callbacks uint64
	// CohBytes is the coherency-path item payload actually shipped
	// (TreeResult.CohItemBytes).
	CohBytes uint64
	// Sum is the workload's checksum; on the 3-space chain, the final
	// counter value.
	Sum int64
	// Want, where nonzero, is the Sum a correct protocol produces.
	Want int64
}

// ablate runs one arm of an ablation per name, in order.
func ablate(names []string, run func(i int) (TreeResult, error)) ([]AblationRow, error) {
	rows := make([]AblationRow, len(names))
	for i, name := range names {
		res, err := run(i)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows[i] = AblationRow{Name: name, Traffic: res.Traffic, Callbacks: res.Callbacks,
			CohBytes: res.CohItemBytes, Sum: res.Sum}
	}
	return rows, nil
}

// An AblationTable is one table of the ablation study (DESIGN.md §5):
// srpcbench -exp ablations prints it, and the regression report gates
// its rows under the Figure tag.
type AblationTable struct {
	Figure, Title string
	// CohBytes adds the coherency-bytes column to the printed table.
	CohBytes bool
	Run      func(netsim.Model) ([]AblationRow, error)
}

// AblationTables is the ablation study in print order, at the sizes it
// is printed and gated at.
var AblationTables = []AblationTable{
	{Figure: "abl-page", Title: "page size (protection grain)",
		Run: func(m netsim.Model) ([]AblationRow, error) { return PageSizeAblation(m, 8191, nil) }},
	{Figure: "abl-traversal", Title: "closure traversal order",
		Run: func(m netsim.Model) ([]AblationRow, error) { return TraversalAblation(m, 8191, 8192) }},
	{Figure: "abl-coherence", Title: "coherency protocol",
		Run: func(m netsim.Model) ([]AblationRow, error) { return CoherenceAblation(m, 8191, 8192) }},
	{Figure: "abl-delta", Title: "delta shipping (repeated update searches)", CohBytes: true,
		Run: func(m netsim.Model) ([]AblationRow, error) { return DeltaShipAblation(m, 8191, 8192, 8) }},
	{Figure: "abl-alloc", Title: "cache page allocation heuristic",
		Run: func(m netsim.Model) ([]AblationRow, error) { return AllocPolicyAblation(m, 512) }},
	{Figure: "abl-batching", Title: "remote malloc batching",
		Run: func(m netsim.Model) ([]AblationRow, error) { return BatchingAblation(m, 1000) }},
	{Figure: "abl-hints", Title: "closure shape hints (left-path walk)",
		Run: func(m netsim.Model) ([]AblationRow, error) { return ClosureHintAblation(m, 12, 8192) }},
	{Figure: "abl-chain", Title: "coherency on a 3-space chain",
		Run: func(m netsim.Model) ([]AblationRow, error) { return ChainCoherenceAblation(m, 8) }},
	{Figure: "abl-hash", Title: "hash-table retrieval (sparse access, §4.1 remark)",
		Run: func(m netsim.Model) ([]AblationRow, error) { return HashWorkload(m, 16384, 16) }},
}

// PageSizeAblation sweeps the protection grain, a design choice the paper
// inherits from the hardware (SPARC: 4 KiB).
func PageSizeAblation(model netsim.Model, nodes int, pageSizes []int) ([]AblationRow, error) {
	if pageSizes == nil {
		pageSizes = []int{512, 1024, 2048, 4096, 8192, 16384}
	}
	names := make([]string, len(pageSizes))
	for i, ps := range pageSizes {
		names[i] = fmt.Sprintf("page=%d", ps)
	}
	return ablate(names, func(i int) (TreeResult, error) {
		return RunTree(TreeConfig{Nodes: nodes, AccessRatio: 0.5, PageSize: pageSizes[i], Model: model})
	})
}

// TraversalAblation compares breadth-first (paper) and depth-first closure
// traversal (§3.3 mentions alternative algorithms).
func TraversalAblation(model netsim.Model, nodes, closure int) ([]AblationRow, error) {
	orders := []core.Traversal{core.TraverseBFS, core.TraverseDFS}
	return ablate([]string{"closure=bfs", "closure=dfs"}, func(i int) (TreeResult, error) {
		return RunTree(TreeConfig{Nodes: nodes, ClosureSize: closure, AccessRatio: 1.0, Traversal: orders[i], Model: model})
	})
}

// CoherenceAblation compares the paper's piggyback protocol against naive
// write-back-on-transfer, on the update workload. Both arms run with
// delta shipping disabled so the comparison reproduces the paper's
// protocols as modeled.
func CoherenceAblation(model netsim.Model, nodes, closure int) ([]AblationRow, error) {
	protocols := []core.Coherence{core.CoherencePiggyback, core.CoherenceWriteBack}
	return ablate([]string{"coherence=piggyback", "coherence=writeback"}, func(i int) (TreeResult, error) {
		return RunTree(TreeConfig{Nodes: nodes, ClosureSize: closure, AccessRatio: 0.5, Update: true,
			Coherence: protocols[i], Model: model, DisableDeltaShip: true})
	})
}

// DeltaShipAblation measures the delta-shipping win on the repeated
// update workload: several full searches in one session, each doubling
// every visited node in place, so the modified data set re-crosses the
// boundary on every call and return. Full shipping re-transmits every
// item's complete encoding each time; delta shipping sends byte-range
// diffs (8 of a node's 16 canonical data bytes change per visit) and
// zero-byte tokens for the untouched remainder of each dirty page.
func DeltaShipAblation(model netsim.Model, nodes, closure, repeats int) ([]AblationRow, error) {
	if repeats <= 0 {
		repeats = 8
	}
	return ablate([]string{"coh=delta-ship", "coh=full-ship"}, func(i int) (TreeResult, error) {
		return RunTree(TreeConfig{Nodes: nodes, ClosureSize: closure, AccessRatio: 0.5, Update: true,
			Repeats: repeats, Model: model, DisableDeltaShip: i == 1})
	})
}

// AllocPolicyAblation compares the paper's one-origin-per-page heuristic
// against mixed-origin packing (§6's worst case) on a workload touching
// data from two origin spaces.
func AllocPolicyAblation(model netsim.Model, nodes int) ([]AblationRow, error) {
	policies := []swizzle.AllocPolicy{swizzle.PolicyPerOrigin, swizzle.PolicyMixed}
	return ablate([]string{"alloc=per-origin", "alloc=mixed"}, func(i int) (TreeResult, error) {
		return RunTwoOriginSearch(model, nodes, policies[i])
	})
}

// BatchingAblation compares batched remote allocation (§3.5) against a
// hypothetical per-operation flush, estimated from the same run by
// charging one round trip per allocation instead of one per batch.
func BatchingAblation(model netsim.Model, allocs int) ([]AblationRow, error) {
	res, batches, err := runRemoteAllocWorkload(model, allocs)
	if err != nil {
		return nil, err
	}
	extra := allocs - int(batches)
	perOp := res
	perOp.Time += time.Duration(extra) * 2 * model.Cost(64)
	perOp.Messages += 2 * uint64(extra)
	return []AblationRow{
		{Name: "alloc=batched", Traffic: res},
		{Name: "alloc=per-op (modeled)", Traffic: perOp},
	}, nil
}

// runRemoteAllocWorkload has the callee extended_malloc a linked list of n
// nodes in the caller's space.
func runRemoteAllocWorkload(model netsim.Model, n int) (Traffic, uint64, error) {
	r, err := newRig(model)
	if err != nil {
		return Traffic{}, 0, err
	}
	defer r.close()
	rts, err := r.spaces(core.Options{}, CallerID, CalleeID)
	if err != nil {
		return Traffic{}, 0, err
	}
	caller, callee := rts[0], rts[1]
	err = callee.Register("makeList", func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		rt := ctx.Runtime()
		prev := core.NullPtr(NodeType)
		count := args[0].Int64()
		for i := int64(0); i < count; i++ {
			v, err := rt.ExtendedMalloc(ctx.Caller(), NodeType)
			if err != nil {
				return nil, err
			}
			ref, err := rt.Deref(v)
			if err != nil {
				return nil, err
			}
			if err := ref.SetInt("data", 0, i); err != nil {
				return nil, err
			}
			if err := ref.SetPtr("left", 0, prev); err != nil {
				return nil, err
			}
			prev = v
		}
		return []core.Value{prev}, nil
	})
	if err != nil {
		return Traffic{}, 0, err
	}
	r.reset()
	if err := caller.BeginSession(); err != nil {
		return Traffic{}, 0, err
	}
	if _, err := caller.Call(CalleeID, "makeList", []core.Value{core.Int64Value(int64(n))}); err != nil {
		return Traffic{}, 0, err
	}
	if err := caller.EndSession(); err != nil {
		return Traffic{}, 0, err
	}
	return r.traffic(), callee.Stats().AllocBatches, nil
}

// RunTwoOriginSearch builds half the tree's children in a third space so a
// searching callee touches data from two origins, then searches it all.
// Under PolicyMixed the two origins share cache pages and one page fault
// needs fetches from both spaces.
func RunTwoOriginSearch(model netsim.Model, nodes int, ap swizzle.AllocPolicy) (TreeResult, error) {
	r, err := newRig(model)
	if err != nil {
		return TreeResult{}, err
	}
	defer r.close()
	const thirdID uint32 = 3
	rts, err := r.spaces(core.Options{AllocPolicy: ap}, CallerID, CalleeID, thirdID)
	if err != nil {
		return TreeResult{}, err
	}
	caller, callee, third := rts[0], rts[1], rts[2]
	if err := RegisterSearch(callee); err != nil {
		return TreeResult{}, err
	}
	// The third space exposes a builder so half the nodes originate there.
	err = third.Register("makeNode", func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		rt := ctx.Runtime()
		v, err := rt.NewObject(NodeType)
		if err != nil {
			return nil, err
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, args[0].Int64()); err != nil {
			return nil, err
		}
		return []core.Value{v}, nil
	})
	if err != nil {
		return TreeResult{}, err
	}

	// Build a right-leaning list alternating owners: odd positions live in
	// the caller, even positions in the third space.
	if err := caller.BeginSession(); err != nil {
		return TreeResult{}, err
	}
	prev := core.NullPtr(NodeType)
	for i := nodes; i >= 1; i-- {
		var v core.Value
		if i%2 == 0 {
			res, err := caller.Call(thirdID, "makeNode", []core.Value{core.Int64Value(int64(i))})
			if err != nil {
				return TreeResult{}, err
			}
			v = res[0]
		} else {
			v, err = caller.NewObject(NodeType)
			if err != nil {
				return TreeResult{}, err
			}
			ref, err := caller.Deref(v)
			if err != nil {
				return TreeResult{}, err
			}
			if err := ref.SetInt("data", 0, int64(i)); err != nil {
				return TreeResult{}, err
			}
		}
		ref, err := caller.Deref(v)
		if err != nil {
			return TreeResult{}, err
		}
		if err := ref.SetPtr("right", 0, prev); err != nil {
			return TreeResult{}, err
		}
		prev = v
	}
	r.reset()
	res, err := caller.Call(CalleeID, SearchProc, []core.Value{
		prev, core.Int64Value(int64(nodes)), core.BoolValue(false),
	})
	if err != nil {
		return TreeResult{}, err
	}
	// The modeled time stops at the search's return; the traffic counts
	// the session end too.
	elapsed := r.clock.Now()
	if err := caller.EndSession(); err != nil {
		return TreeResult{}, err
	}
	out := TreeResult{
		Traffic:   r.traffic(),
		Callbacks: callee.Stats().FetchesSent,
		Visited:   res[0].Int64(),
		Sum:       res[1].Int64(),
	}
	out.Time = elapsed
	return out, nil
}
