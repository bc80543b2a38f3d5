package bench

import (
	"fmt"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/wire"
)

// This file is the multi-client scale-out workload: one shared data
// server owns a single tree, and N client spaces import its root and walk
// it, each in its own session. Every client asks the origin for the same
// objects and must compute the same checksum; from round 2 the clients'
// warm caches revalidate instead of refetching. A mutation-ratio sweep
// dirties a fraction of the tree at the origin between rounds, so the
// checksum also proves no client is ever served a stale value.
//
// Clients run strictly sequentially, so every counter is deterministic
// and can be snapshot-checked (BENCH_38.json). Wall-clock concurrency is
// exercised elsewhere (the core package's -race tests); this harness
// measures work, not overlap.

// ScaleoutConfig parameterizes one scale-out run.
type ScaleoutConfig struct {
	// Nodes is the shared tree size.
	Nodes int
	// ClosureSize is the eager-transfer budget in bytes.
	ClosureSize int
	// Clients is the number of client spaces sharing the one origin.
	Clients int
	// Rounds is how many times each client walks the tree (>= 1). Each
	// walk is its own session; from round 2 the clients' warm caches
	// revalidate instead of refetching.
	Rounds int
	// MutationRatio is the fraction of tree nodes rewritten in the
	// server's heap between rounds (0.0 = read-only sharing).
	MutationRatio float64
	// PageSize overrides the simulated page size.
	PageSize int
	// Model is the network cost model; zero value = free network (tests).
	Model netsim.Model
}

func (c *ScaleoutConfig) fill() error {
	if c.Nodes <= 0 {
		c.Nodes = 8191
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 8192
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Clients > 64 {
		return fmt.Errorf("bench: %d scale-out clients (max 64)", c.Clients)
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.MutationRatio < 0 || c.MutationRatio > 1 {
		return fmt.Errorf("bench: mutation ratio %v out of [0,1]", c.MutationRatio)
	}
	return nil
}

// ScaleoutResult is the outcome of one scale-out run. Traffic counters
// are totals over all clients and rounds.
type ScaleoutResult struct {
	// Traffic is the whole run's virtual time and traffic.
	Traffic
	// Faults and Fetches sum the clients' access violations and FETCH
	// messages.
	Faults, Fetches uint64
	// Sum is the final-round checksum each client computed.
	Sum int64
}

// RunScaleout executes one scale-out run: the server builds the shared
// tree, then each round every client walks it in its own session, with
// the configured fraction of nodes mutated at the origin between rounds.
func RunScaleout(cfg ScaleoutConfig) (ScaleoutResult, error) {
	if err := cfg.fill(); err != nil {
		return ScaleoutResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return ScaleoutResult{}, err
	}
	defer r.close()
	rts, err := r.spaces(core.Options{
		Policy:      core.PolicySmart,
		ClosureSize: cfg.ClosureSize,
		PageSize:    cfg.PageSize,
	}, fleet(cfg.Clients)...)
	if err != nil {
		return ScaleoutResult{}, err
	}
	server, clients := rts[0], rts[1:]
	root, err := BuildTree(server, cfg.Nodes)
	if err != nil {
		return ScaleoutResult{}, err
	}
	want, err := localTreeSum(server, root)
	if err != nil {
		return ScaleoutResult{}, err
	}

	// The tree is built and the runtimes idle: measurement starts here.
	r.reset()
	var out ScaleoutResult
	for round := 1; round <= cfg.Rounds; round++ {
		if round > 1 && cfg.MutationRatio > 0 {
			// Each selected node's data field gains 1 (MutateTree), so the
			// expected checksum advances by the selection count.
			mutated, err := MutateTree(server, root, cfg.MutationRatio, uint64(round))
			if err != nil {
				return ScaleoutResult{}, fmt.Errorf("bench: mutate before round %d: %w", round, err)
			}
			want += int64(mutated)
		}
		for i, cl := range clients {
			sum, err := clientTreeSum(cl, root.LP)
			if err != nil {
				return ScaleoutResult{}, fmt.Errorf("bench: scale-out client %d round %d: %w", i, round, err)
			}
			if sum != want {
				return ScaleoutResult{}, fmt.Errorf("bench: scale-out client %d round %d checksum %d, want %d",
					i, round, sum, want)
			}
			out.Sum = sum
		}
	}
	out.Traffic = r.traffic()
	for _, cl := range clients {
		st := cl.Stats()
		out.Faults += st.Faults
		out.Fetches += st.FetchesSent
	}
	return out, nil
}

// clientTreeSum imports the shared root, walks the whole tree inside one
// session (fault-driven fetches underneath), and returns the data sum.
func clientTreeSum(cl *core.Runtime, root wire.LongPtr) (int64, error) {
	v, err := cl.ImportPtr(root)
	if err != nil {
		return 0, err
	}
	if err := cl.BeginSession(); err != nil {
		return 0, err
	}
	sum, err := refTreeSum(cl, v)
	if err != nil {
		cl.AbortSession()
		return 0, err
	}
	if err := cl.EndSession(); err != nil {
		return 0, err
	}
	return sum, nil
}

// localTreeSum walks a locally owned tree without a session (heap reads
// only): the server-side oracle for the expected checksum.
func localTreeSum(rt *core.Runtime, root core.Value) (int64, error) {
	return refTreeSum(rt, root)
}

func refTreeSum(rt *core.Runtime, v core.Value) (int64, error) {
	if v.IsNullPtr() {
		return 0, nil
	}
	ref, err := rt.Deref(v)
	if err != nil {
		return 0, err
	}
	sum, err := ref.Int("data", 0)
	if err != nil {
		return 0, err
	}
	for _, f := range []string{"left", "right"} {
		c, err := ref.Ptr(f, 0)
		if err != nil {
			return 0, err
		}
		s, err := refTreeSum(rt, c)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}
