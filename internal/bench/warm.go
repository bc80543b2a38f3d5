package bench

import (
	"fmt"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
)

// WarmConfig parameterizes the repeated-session workload: the same
// caller/callee pair stays alive across K sessions, each session runs one
// full remote search, and between sessions a fraction of the tree's nodes
// is mutated in the caller's heap. Session 1 is the cold start; sessions
// 2..K measure what the warm cross-session cache re-ships.
type WarmConfig struct {
	// Nodes is the complete binary tree size.
	Nodes int
	// ClosureSize is the eager-transfer budget in bytes.
	ClosureSize int
	// Sessions is K, the number of back-to-back sessions (>= 2).
	Sessions int
	// MutationRatio is the fraction of nodes whose data is rewritten in
	// the caller's heap between sessions (0.0 = pure re-read workload).
	MutationRatio float64
	// PageSize overrides the simulated page size.
	PageSize int
	// Model is the network cost model; zero value = free network (tests).
	Model netsim.Model
	// DisableWarmCache reverts to discard-on-invalidate (the ablation:
	// every session pays the full cold-start transfer again).
	DisableWarmCache bool
}

func (c *WarmConfig) fill() error {
	if c.Nodes <= 0 {
		c.Nodes = 8191
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 8192
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.MutationRatio < 0 || c.MutationRatio > 1 {
		return fmt.Errorf("bench: mutation ratio %v out of [0,1]", c.MutationRatio)
	}
	return nil
}

// WarmPoints is the repeated-session sweep: the warm cross-session cache
// over a mutation-ratio sweep, with the discard-on-invalidate ablation at
// ratio 0 as the control.
func WarmPoints(model netsim.Model, nodes, closure int) []Point[WarmConfig] {
	pt := func(name string, ratio float64, noWarm bool) Point[WarmConfig] {
		return Point[WarmConfig]{name, WarmConfig{Nodes: nodes, ClosureSize: closure, Sessions: 4,
			MutationRatio: ratio, Model: model, DisableWarmCache: noWarm}}
	}
	return []Point[WarmConfig]{pt("smart-warm", 0, false), pt("smart-warm", 0.05, false),
		pt("smart-warm", 0.25, false), pt("smart-coldstart", 0, true)}
}

// WarmSession is the traffic attributable to one session of the repeated
// workload (all counters are per-session deltas, not cumulative).
type WarmSession struct {
	// Traffic is the session's virtual time and traffic.
	Traffic
	// Callbacks counts the callee's data-request messages (fetches plus
	// batched revalidations).
	Callbacks uint64
	// Faults is the callee's access-violation count.
	Faults uint64
	// ItemBodyBytes is the session's coherency/data item-body bytes on
	// the wire, summed over both spaces: fetch-path installs (wire ==
	// body), coherency-path items (deltas at delta size), and
	// revalidation bodies (deltas at delta size, tokens at zero). This is
	// the column the warm-cache acceptance criterion is measured on.
	ItemBodyBytes uint64
	// RevalidateHits / RevalidateMisses / RevalidateBytes are the
	// session's warm-cache revalidation outcomes on the callee.
	RevalidateHits, RevalidateMisses, RevalidateBytes uint64
	// Sum is the search checksum (validates correctness per session).
	Sum int64
}

// WarmResult is the outcome of one repeated-session run.
type WarmResult struct {
	Sessions []WarmSession
}

// RunWarmSessions executes the repeated-session experiment under the
// virtual clock and returns per-session traffic. The caller's tree
// survives across sessions; the callee's cache is demoted (warm) or
// discarded (ablation) at each session end by the runtime under test.
func RunWarmSessions(cfg WarmConfig) (WarmResult, error) {
	if err := cfg.fill(); err != nil {
		return WarmResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return WarmResult{}, err
	}
	defer r.close()
	caller, callee, root, err := r.searchPair(core.Options{
		Policy:           core.PolicySmart,
		ClosureSize:      cfg.ClosureSize,
		PageSize:         cfg.PageSize,
		DisableWarmCache: cfg.DisableWarmCache,
	}, cfg.Nodes)
	if err != nil {
		return WarmResult{}, err
	}

	r.reset()
	var out WarmResult
	for s := 0; s < cfg.Sessions; s++ {
		if s > 0 && cfg.MutationRatio > 0 {
			if _, err := MutateTree(caller, root, cfg.MutationRatio, uint64(s)); err != nil {
				return WarmResult{}, fmt.Errorf("bench: mutate before session %d: %w", s+1, err)
			}
		}
		t0, c0, e0 := r.traffic(), caller.Stats(), callee.Stats()
		_, sum, err := search(caller, root, int64(cfg.Nodes), false, 1)
		if err != nil {
			return WarmResult{}, fmt.Errorf("bench: warm session %d: %w", s+1, err)
		}
		c1, e1 := caller.Stats(), callee.Stats()
		body := func(s core.Stats) uint64 { return s.BytesInstalled + s.CohItemBytes + s.CohRevalidateBytes }
		out.Sessions = append(out.Sessions, WarmSession{
			Traffic:          r.traffic().minus(t0),
			Callbacks:        e1.FetchesSent + e1.CohRevalidateMsgs - e0.FetchesSent - e0.CohRevalidateMsgs,
			Faults:           e1.Faults - e0.Faults,
			ItemBodyBytes:    body(c1) - body(c0) + body(e1) - body(e0),
			RevalidateHits:   e1.CohRevalidateHits - e0.CohRevalidateHits,
			RevalidateMisses: e1.CohRevalidateMisses - e0.CohRevalidateMisses,
			RevalidateBytes:  e1.CohRevalidateBytes - e0.CohRevalidateBytes,
			Sum:              sum,
		})
	}
	return out, nil
}

// MutateTree rewrites the data field of a deterministic, salt-dependent
// subset of the tree's nodes (preorder index hashed against ratio) in
// rt's local heap, adding 1 to each selected node. It returns how many
// nodes were selected, so callers can track the expected checksum
// incrementally. No session or network traffic is involved — this models
// the origin's data evolving between RPC sessions.
func MutateTree(rt *core.Runtime, root core.Value, ratio float64, salt uint64) (int, error) {
	if ratio <= 0 {
		return 0, nil
	}
	threshold := uint64(ratio * float64(1<<32))
	idx := int64(0)
	mutated := 0
	var walk func(v core.Value) error
	walk = func(v core.Value) error {
		if v.IsNullPtr() {
			return nil
		}
		idx++
		ref, err := rt.Deref(v)
		if err != nil {
			return err
		}
		if warmMix(uint64(idx), salt)&0xFFFFFFFF < threshold {
			d, err := ref.Int("data", 0)
			if err != nil {
				return err
			}
			if err := ref.SetInt("data", 0, d+1); err != nil {
				return err
			}
			mutated++
		}
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
	if err := walk(root); err != nil {
		return mutated, err
	}
	return mutated, nil
}

// warmMix is a splitmix64-style hash making node selection deterministic
// in (index, salt) and independent across mutation rounds.
func warmMix(x, salt uint64) uint64 {
	x ^= salt * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
