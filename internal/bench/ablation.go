package bench

import (
	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
)

// RunPathWalk has the callee walk the leftmost root-to-leaf path of a
// tree owned by the caller. With hint=true, the caller (the data owner
// serving the fetches) follows only the "left" pointer during closure
// traversal — §6's programmer-supplied shape suggestion for a path-shaped
// consumer.
func RunPathWalk(model netsim.Model, levels, closure int, hint bool) (TreeResult, error) {
	r, err := newRig(model)
	if err != nil {
		return TreeResult{}, err
	}
	defer r.close()
	rts, err := r.spaces(core.Options{ClosureSize: closure}, CallerID, CalleeID)
	if err != nil {
		return TreeResult{}, err
	}
	owner, walker := rts[0], rts[1]
	if hint {
		if err := owner.SetClosureHint(NodeType, []string{"left"}); err != nil {
			return TreeResult{}, err
		}
	}

	err = walker.Register("leftPath", func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		rt := ctx.Runtime()
		var n, sum int64
		v := args[0]
		for !v.IsNullPtr() {
			ref, err := rt.Deref(v)
			if err != nil {
				return nil, err
			}
			n++
			d, err := ref.Int("data", 0)
			if err != nil {
				return nil, err
			}
			sum += d
			if v, err = ref.Ptr("left", 0); err != nil {
				return nil, err
			}
		}
		return []core.Value{core.Int64Value(n), core.Int64Value(sum)}, nil
	})
	if err != nil {
		return TreeResult{}, err
	}

	root, err := BuildTree(owner, (1<<levels)-1)
	if err != nil {
		return TreeResult{}, err
	}
	r.reset()
	if err := owner.BeginSession(); err != nil {
		return TreeResult{}, err
	}
	res, err := owner.Call(CalleeID, "leftPath", []core.Value{root})
	if err != nil {
		return TreeResult{}, err
	}
	if err := owner.EndSession(); err != nil {
		return TreeResult{}, err
	}
	return TreeResult{
		Traffic:   r.traffic(),
		Callbacks: walker.Stats().FetchesSent,
		Visited:   res[0].Int64(),
		Sum:       res[1].Int64(),
	}, nil
}

// ClosureHintAblation compares unrestricted closure traversal against a
// "left"-only shape hint on a leftmost-path workload.
func ClosureHintAblation(model netsim.Model, levels, closure int) ([]AblationRow, error) {
	return ablate([]string{"hint=none", "hint=left-only"}, func(i int) (TreeResult, error) {
		return RunPathWalk(model, levels, closure, i == 1)
	})
}

// RunChainUpdate drives a three-space chain A→B→C where B and C both
// update A's data on every hop. Under the paper's piggyback protocol the
// modified set rides the existing control transfers; under the naive
// write-back ablation every hop adds separate write-back messages to the
// origin.
func RunChainUpdate(model netsim.Model, hops int, coherence core.Coherence) (TreeResult, error) {
	r, err := newRig(model)
	if err != nil {
		return TreeResult{}, err
	}
	defer r.close()
	const thirdID uint32 = 3
	rts, err := r.spaces(core.Options{Coherence: coherence}, CallerID, CalleeID, thirdID)
	if err != nil {
		return TreeResult{}, err
	}
	a, b, c := rts[0], rts[1], rts[2]

	bump := func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return []core.Value{core.Int64Value(d)}, ref.SetInt("data", 0, d+1)
	}
	if err := c.Register("bump", bump); err != nil {
		return TreeResult{}, err
	}
	err = b.Register("bumpAndForward", func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		if _, err := bump(ctx, args); err != nil {
			return nil, err
		}
		return ctx.Call(thirdID, "bump", args)
	})
	if err != nil {
		return TreeResult{}, err
	}

	node, err := a.NewObject(NodeType)
	if err != nil {
		return TreeResult{}, err
	}
	r.reset()
	if err := a.BeginSession(); err != nil {
		return TreeResult{}, err
	}
	for i := 0; i < hops; i++ {
		if _, err := a.Call(CalleeID, "bumpAndForward", []core.Value{node}); err != nil {
			return TreeResult{}, err
		}
	}
	if err := a.EndSession(); err != nil {
		return TreeResult{}, err
	}
	ref, err := a.Deref(node)
	if err != nil {
		return TreeResult{}, err
	}
	final, err := ref.Int("data", 0)
	if err != nil {
		return TreeResult{}, err
	}
	return TreeResult{Traffic: r.traffic(), Sum: final}, nil
}

// ChainCoherenceAblation runs the three-space chain under both coherency
// protocols, reporting cost and the final counter value (2×hops when the
// protocol is correct).
func ChainCoherenceAblation(model netsim.Model, hops int) ([]AblationRow, error) {
	protocols := []core.Coherence{core.CoherencePiggyback, core.CoherenceWriteBack}
	rows, err := ablate([]string{"chain/piggyback", "chain/writeback"}, func(i int) (TreeResult, error) {
		return RunChainUpdate(model, hops, protocols[i])
	})
	for i := range rows {
		rows[i].Want = int64(2 * hops)
	}
	return rows, err
}
