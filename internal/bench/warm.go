package bench

import (
	"fmt"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
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

// WarmSession is the traffic attributable to one session of the repeated
// workload (all counters are per-session deltas, not cumulative).
type WarmSession struct {
	// Time is the virtual processing time of the session.
	Time time.Duration
	// Messages and Bytes are total network traffic.
	Messages, Bytes uint64
	// Crossings counts call + return messages.
	Crossings uint64
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

// statsSnap captures everything RunWarmSessions differentiates.
type statsSnap struct {
	clk            time.Duration
	msgs, bytes    uint64
	crossings      uint64
	caller, callee core.Stats
}

// RunWarmSessions executes the repeated-session experiment under the
// virtual clock and returns per-session traffic. The caller's tree
// survives across sessions; the callee's cache is demoted (warm) or
// discarded (ablation) at each session end by the runtime under test.
func RunWarmSessions(cfg WarmConfig) (WarmResult, error) {
	if err := cfg.fill(); err != nil {
		return WarmResult{}, err
	}
	clock := &netsim.Clock{}
	stats := &netsim.Stats{}
	net, err := transport.NewNetwork(cfg.Model, clock, stats)
	if err != nil {
		return WarmResult{}, err
	}
	defer net.Close()
	reg := NewRegistry()

	mk := func(id uint32) (*core.Runtime, error) {
		node, err := net.Attach(id)
		if err != nil {
			return nil, err
		}
		return core.New(core.Options{
			ID:               id,
			Node:             node,
			Registry:         reg,
			Policy:           core.PolicySmart,
			ClosureSize:      cfg.ClosureSize,
			PageSize:         cfg.PageSize,
			DisableWarmCache: cfg.DisableWarmCache,
		})
	}
	caller, err := mk(CallerID)
	if err != nil {
		return WarmResult{}, err
	}
	defer caller.Close()
	callee, err := mk(CalleeID)
	if err != nil {
		return WarmResult{}, err
	}
	defer callee.Close()
	if err := RegisterSearch(callee); err != nil {
		return WarmResult{}, err
	}

	root, err := BuildTree(caller, cfg.Nodes)
	if err != nil {
		return WarmResult{}, err
	}

	take := func() statsSnap {
		return statsSnap{
			clk:  clock.Now(),
			msgs: stats.Messages(), bytes: stats.Bytes(),
			crossings: stats.KindMessages(uint32(wire.KindCall)) +
				stats.KindMessages(uint32(wire.KindReturn)),
			caller: caller.Stats(), callee: callee.Stats(),
		}
	}

	clock.Reset()
	stats.Reset()
	var out WarmResult
	for s := 0; s < cfg.Sessions; s++ {
		if s > 0 && cfg.MutationRatio > 0 {
			if _, err := MutateTree(caller, root, cfg.MutationRatio, uint64(s)); err != nil {
				return WarmResult{}, fmt.Errorf("bench: mutate before session %d: %w", s+1, err)
			}
		}
		before := take()
		if err := caller.BeginSession(); err != nil {
			return WarmResult{}, err
		}
		res, err := caller.Call(CalleeID, SearchProc, []core.Value{
			root,
			core.Int64Value(int64(cfg.Nodes)),
			core.BoolValue(false),
		})
		if err != nil {
			return WarmResult{}, fmt.Errorf("bench: warm session %d search: %w", s+1, err)
		}
		if err := caller.EndSession(); err != nil {
			return WarmResult{}, err
		}
		after := take()

		both := func(f func(core.Stats) uint64) uint64 {
			return f(after.caller) - f(before.caller) + f(after.callee) - f(before.callee)
		}
		out.Sessions = append(out.Sessions, WarmSession{
			Time:      after.clk - before.clk,
			Messages:  after.msgs - before.msgs,
			Bytes:     after.bytes - before.bytes,
			Crossings: after.crossings - before.crossings,
			Callbacks: after.callee.FetchesSent - before.callee.FetchesSent +
				after.callee.CohRevalidateMsgs - before.callee.CohRevalidateMsgs,
			Faults: after.callee.Faults - before.callee.Faults,
			ItemBodyBytes: both(func(s core.Stats) uint64 { return s.BytesInstalled }) +
				both(func(s core.Stats) uint64 { return s.CohItemBytes }) +
				both(func(s core.Stats) uint64 { return s.CohRevalidateBytes }),
			RevalidateHits:   after.callee.CohRevalidateHits - before.callee.CohRevalidateHits,
			RevalidateMisses: after.callee.CohRevalidateMisses - before.callee.CohRevalidateMisses,
			RevalidateBytes:  after.callee.CohRevalidateBytes - before.callee.CohRevalidateBytes,
			Sum:              res[1].Int64(),
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
