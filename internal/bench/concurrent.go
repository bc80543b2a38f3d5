package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/histcheck"
	"smartrpc/internal/netsim"
	"smartrpc/internal/wire"
)

// This file is the concurrent-sessions workload: K client spaces hold
// truly overlapping sessions (one goroutine each) over one shared
// origin tree, randomly reading and writing node values, while an
// internal/histcheck recorder captures every operation. The run fails
// unless the recorded multi-client history is linearizable, so the
// benchmark doubles as a coherency check: every number it reports was
// produced by an execution proven consistent.
//
// Concurrency makes wire traffic and virtual time interleaving-
// dependent, so unlike the sequential families only the operation
// counts — sessions, recorded reads/writes, checked operations and
// partitions, all functions of the per-client seeds alone — are
// deterministic and snapshot-checked (BENCH_38.json). Traffic and wall
// time are reported for the human tables.

// ConcurrentConfig parameterizes one concurrent-sessions run.
type ConcurrentConfig struct {
	// Nodes is the shared tree size.
	Nodes int
	// ClosureSize is the eager-transfer budget in bytes.
	ClosureSize int
	// Clients is the number of concurrently running client spaces.
	Clients int
	// Rounds is how many sessions each client runs back to back.
	Rounds int
	// Visits is how many random nodes each session touches.
	Visits int
	// WriteRatio is the fraction of visits that write (0.0 = read-only).
	WriteRatio float64
	// PageSize overrides the simulated page size.
	PageSize int
	// Model is the network cost model; zero value = free network.
	Model netsim.Model
	// Seed varies the per-client visit streams.
	Seed int64
}

func (c *ConcurrentConfig) fill() error {
	if c.Nodes <= 0 {
		c.Nodes = 8191
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 8192
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Clients > 64 {
		return fmt.Errorf("bench: %d concurrent clients (max 64)", c.Clients)
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Visits <= 0 {
		c.Visits = 8
	}
	if c.WriteRatio < 0 || c.WriteRatio > 1 {
		return fmt.Errorf("bench: write ratio %v out of [0,1]", c.WriteRatio)
	}
	return nil
}

// ConcurrentPoints is the concurrent-sessions sweep over client counts
// and write ratios.
func ConcurrentPoints(nodes, closure int) []Point[ConcurrentConfig] {
	var pts []Point[ConcurrentConfig]
	for _, p := range []struct {
		clients int
		ratio   float64
	}{{2, 0.25}, {4, 0.25}, {8, 0}, {8, 0.05}, {8, 0.25}} {
		pts = append(pts, Point[ConcurrentConfig]{"smart-concurrent", ConcurrentConfig{
			Nodes: nodes, ClosureSize: closure, Clients: p.clients, WriteRatio: p.ratio, Seed: 1}})
	}
	return pts
}

// ConcurrentResult is the outcome of one concurrent-sessions run.
type ConcurrentResult struct {
	// Traffic is the total network traffic (interleaving-dependent;
	// reported, never snapshot-checked).
	Traffic
	// Sessions, Reads, Writes count committed sessions and the
	// operations they performed (deterministic per seed).
	Sessions, Reads, Writes uint64
	// CheckedOps and Partitions are the linearizability checker's
	// history size and per-object partition count (deterministic:
	// read-your-own-writes reads are excluded by the recorder, but which
	// reads those are is a function of the per-client streams alone).
	CheckedOps, Partitions uint64
	// CheckTime is how long the linearizability search took.
	CheckTime time.Duration
	// Wall is the wall-clock time of the concurrent phase.
	Wall time.Duration
}

// concTracer forwards session lifecycle trace events into a histcheck
// client.
type concTracer struct{ c *histcheck.Client }

func (t concTracer) Trace(e core.Event) {
	switch e.Kind {
	case core.EvSessionBegin:
		t.c.OnSessionBegin()
	case core.EvSessionEnd:
		t.c.OnSessionEnd()
	}
}

// RunConcurrent executes one concurrent-sessions run and verifies the
// recorded history is linearizable.
func RunConcurrent(cfg ConcurrentConfig) (ConcurrentResult, error) {
	if err := cfg.fill(); err != nil {
		return ConcurrentResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return ConcurrentResult{}, err
	}
	defer r.close()
	rts, err := r.spaces(core.Options{
		Policy:      core.PolicySmart,
		ClosureSize: cfg.ClosureSize,
		PageSize:    cfg.PageSize,
		Concurrent:  true,
	}, fleet(cfg.Clients)...)
	if err != nil {
		return ConcurrentResult{}, err
	}
	server, clients := rts[0], rts[1:]
	root, err := BuildTree(server, cfg.Nodes)
	if err != nil {
		return ConcurrentResult{}, err
	}
	nodes, vals, err := collectTreeNodes(server, root)
	if err != nil {
		return ConcurrentResult{}, err
	}
	rec := histcheck.NewRecorder()
	for i, lp := range nodes {
		rec.Init(lp, vals[i])
	}

	r.reset()
	var out ConcurrentResult
	var wg sync.WaitGroup
	errs := make([]error, cfg.Clients)
	start := time.Now()
	for ci, cl := range clients {
		hc := rec.Client(ci)
		cl.SetTracer(concTracer{c: hc})
		wg.Add(1)
		go func(ci int, cl *core.Runtime, hc *histcheck.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)*7919))
			errs[ci] = runConcClient(cl, hc, rng, nodes, ci, cfg)
		}(ci, cl, hc)
	}
	wg.Wait()
	out.Wall = time.Since(start)
	for ci, err := range errs {
		if err != nil {
			return ConcurrentResult{}, fmt.Errorf("bench: concurrent client %d: %w", ci, err)
		}
	}

	checkStart := time.Now()
	res := rec.Check()
	out.CheckTime = time.Since(checkStart)
	if !res.Ok {
		return ConcurrentResult{}, fmt.Errorf("bench: concurrent history not linearizable:\n%s", res.Err())
	}
	out.CheckedOps = uint64(res.Ops)
	out.Partitions = uint64(res.Partitions)
	out.Sessions = uint64(cfg.Clients * cfg.Rounds)
	for ci := 0; ci < cfg.Clients; ci++ {
		// Re-derive each client's deterministic read/write split from its
		// seed stream (cheaper than threading counters out of goroutines,
		// and it pins the contract that the stream alone decides).
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)*7919))
		for r := 0; r < cfg.Rounds; r++ {
			for v := 0; v < cfg.Visits; v++ {
				rng.Intn(len(nodes))
				if rng.Float64() < cfg.WriteRatio {
					out.Writes++
				} else {
					out.Reads++
				}
			}
		}
	}
	out.Traffic = r.traffic()
	return out, nil
}

// runConcClient drives one client's rounds: every session imports
// random nodes and reads or writes their data field, recorded through
// the histcheck session.
func runConcClient(cl *core.Runtime, hc *histcheck.Client, rng *rand.Rand, nodes []wire.LongPtr, ci int, cfg ConcurrentConfig) error {
	for round := 0; round < cfg.Rounds; round++ {
		hs := hc.Begin()
		if err := cl.BeginSession(); err != nil {
			hs.Abandon()
			return err
		}
		for v := 0; v < cfg.Visits; v++ {
			lp := nodes[rng.Intn(len(nodes))]
			pv, err := cl.ImportPtr(lp)
			if err == nil {
				var ref core.Ref
				ref, err = cl.Deref(pv)
				if err == nil {
					if rng.Float64() < cfg.WriteRatio {
						wv := int64(ci+1)*1_000_000 + int64(round)*1_000 + int64(v)
						err = hs.Write(lp, wv, func() error {
							return ref.SetInt("data", 0, wv)
						})
					} else {
						_, err = hs.Read(lp, func() (int64, error) {
							return ref.Int("data", 0)
						})
					}
				}
			}
			if err != nil {
				cl.AbortSession()
				hs.Abandon()
				return err
			}
		}
		if err := cl.EndSession(); err != nil {
			cl.AbortSession()
			hs.Abandon()
			return err
		}
		hs.Commit()
	}
	return nil
}

// collectTreeNodes walks a server-local tree in preorder and returns
// every node's long pointer with its committed data value.
func collectTreeNodes(rt *core.Runtime, root core.Value) ([]wire.LongPtr, []int64, error) {
	var lps []wire.LongPtr
	var vals []int64
	var walk func(v core.Value) error
	walk = func(v core.Value) error {
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
		lps = append(lps, v.LP)
		vals = append(vals, d)
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
		return nil, nil, err
	}
	return lps, vals, nil
}
