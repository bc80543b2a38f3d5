package bench

import (
	"fmt"
	"sync"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/wire"
)

// This file is the asynchronous-fetch-pipeline workload: a pointer-chase
// designed to defeat the eager closure. The shared data server owns one
// left-linked chain per client (TreeNode with only `left` set); each
// client imports its chain's root pointer, begins its own session, and
// walks the chain by dereference. Every closure shipment ends at a
// pointer into a cold page, so without speculation the walk blocks on one
// demand-fetch round trip per closure — the worst case for the paper's
// protocol and the best case for the speculative prefetcher, which can
// keep the next closure in flight while the client chews through the
// current one.
//
// No client ever issues a Call: chains are reached through ImportPtr, so
// N clients hold N independent sessions against one server and their
// FETCH streams exercise the server's concurrent serve pool. With
// Clients=1 and SyncPrefetch the run is fully deterministic (the BENCH_38
// regression rows); multi-client asynchronous runs demonstrate wall-time
// overlap and are not snapshot-checked.

// PipelineServerID is the shared data server's space ID; clients are
// numbered PipelineClientID0, +1, +2, ...
const (
	PipelineServerID  uint32 = 1
	PipelineClientID0 uint32 = 100
)

// PipelineConfig parameterizes one pointer-chase run.
type PipelineConfig struct {
	// ChainNodes is the length of each client's chain.
	ChainNodes int
	// Clients is the number of concurrent client spaces (default 1).
	Clients int
	// ClosureSize is the eager-transfer budget in bytes.
	ClosureSize int
	// PageSize overrides the simulated page size.
	PageSize int
	// Prefetch enables the speculative prefetcher on the clients;
	// SyncPrefetch passes through to core.Options.
	Prefetch     bool
	SyncPrefetch bool
	// Model is the network cost model; zero value = free network (tests).
	Model netsim.Model
	// LinkDelay adds a real wall-clock delivery delay per message, making
	// hidden round trips observable in WallTime. Leave zero for modeled
	// (deterministic) runs.
	LinkDelay time.Duration
	// Think models per-node application computation in the wall-clock
	// experiments: each client sleeps Think after every ThinkEvery nodes
	// chased (ThinkEvery defaults to 1). Speculation can only shorten wall
	// time when there is computation to overlap the round trips with;
	// leave zero for modeled runs.
	Think      time.Duration
	ThinkEvery int
}

func (c *PipelineConfig) fill() error {
	if c.ChainNodes <= 0 {
		c.ChainNodes = 8191
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 8192
	}
	if c.Clients > 64 {
		return fmt.Errorf("bench: %d pipeline clients (max 64)", c.Clients)
	}
	if c.ThinkEvery <= 0 {
		c.ThinkEvery = 1
	}
	return nil
}

// PipelinePoints is the deterministic pipeline sweep: one client with
// synchronous speculation, the prefetcher off (the demand baseline) and
// on, so every modeled column — the prefetch counters too — is
// deterministic.
func PipelinePoints(model netsim.Model, nodes, closure int) []Point[PipelineConfig] {
	demand := PipelineConfig{ChainNodes: nodes, ClosureSize: closure, SyncPrefetch: true, Model: model}
	prefetch := demand
	prefetch.Prefetch = true
	return []Point[PipelineConfig]{{"smart-demand", demand}, {"smart-prefetch", prefetch}}
}

// PipelineResult is the outcome of one pointer-chase run. All counters
// are summed over the clients.
type PipelineResult struct {
	// Traffic is the run's virtual time and traffic.
	Traffic
	// WallTime is the real elapsed time (meaningful only with LinkDelay
	// set).
	WallTime time.Duration
	// Fetches counts the clients' FETCH messages, demand and speculative
	// alike; BlockingFetches = Fetches - PfIssued is how many round trips
	// the chases actually stalled on.
	Fetches, BlockingFetches uint64
	// Faults is the clients' access-violation count.
	Faults uint64
	// PfIssued..PfBytes aggregate the clients' prefetch counters.
	PfIssued, PfCoalesced, PfBytes uint64
	// Sum is the total chase checksum (validates correctness).
	Sum int64
}

// RunPipeline executes one pointer-chase run: the server builds the
// chains, every client chases its own concurrently, and each client tears
// its session down.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) {
	if err := cfg.fill(); err != nil {
		return PipelineResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return PipelineResult{}, err
	}
	defer r.close()
	opts := core.Options{
		Policy:       core.PolicySmart,
		ClosureSize:  cfg.ClosureSize,
		PageSize:     cfg.PageSize,
		SyncPrefetch: cfg.SyncPrefetch,
	}
	server, err := r.spaces(opts, PipelineServerID)
	if err != nil {
		return PipelineResult{}, err
	}
	opts.Prefetch = cfg.Prefetch
	clients, err := r.spaces(opts, fleet(cfg.Clients)[1:]...)
	if err != nil {
		return PipelineResult{}, err
	}
	roots := make([]wire.LongPtr, cfg.Clients)
	wants := make([]int64, cfg.Clients)
	for i := range clients {
		if roots[i], wants[i], err = BuildChain(server[0], cfg.ChainNodes, int64(i)*int64(cfg.ChainNodes)); err != nil {
			return PipelineResult{}, err
		}
	}

	// The chains are built and the runtimes idle: measurement starts here.
	r.reset()
	r.net.SetLinkDelay(cfg.LinkDelay)
	start := time.Now()
	sums := make([]int64, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *core.Runtime) {
			defer wg.Done()
			sums[i], errs[i] = chaseChain(cl, roots[i], cfg.Think, cfg.ThinkEvery)
		}(i, cl)
	}
	wg.Wait()
	r.net.SetLinkDelay(0)
	out := PipelineResult{Traffic: r.traffic(), WallTime: time.Since(start)}
	for i, cl := range clients {
		if errs[i] != nil {
			return PipelineResult{}, fmt.Errorf("bench: pipeline client %d: %w", i, errs[i])
		}
		if sums[i] != wants[i] {
			return PipelineResult{}, fmt.Errorf("bench: pipeline client %d checksum %d, want %d", i, sums[i], wants[i])
		}
		st := cl.Stats()
		out.Fetches += st.FetchesSent
		out.Faults += st.Faults
		out.PfIssued += st.PfIssued
		out.PfCoalesced += st.PfCoalesced
		out.PfBytes += st.PfBytes
		out.Sum += sums[i]
	}
	out.BlockingFetches = out.Fetches - out.PfIssued
	return out, nil
}

// chaseChain walks one chain inside its own session and returns the data
// checksum, sleeping think after every thinkEvery nodes to model the
// application computation the speculative fetches overlap with.
func chaseChain(cl *core.Runtime, root wire.LongPtr, think time.Duration, thinkEvery int) (int64, error) {
	v, err := cl.ImportPtr(root)
	if err != nil {
		return 0, err
	}
	if err := cl.BeginSession(); err != nil {
		return 0, err
	}
	var sum int64
	for n := 1; !v.IsNullPtr(); n++ {
		ref, err := cl.Deref(v)
		if err != nil {
			return 0, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return 0, err
		}
		sum += d
		if v, err = ref.Ptr("left", 0); err != nil {
			return 0, err
		}
		if think > 0 && n%thinkEvery == 0 {
			time.Sleep(think)
		}
	}
	if err := cl.EndSession(); err != nil {
		return 0, err
	}
	return sum, nil
}

// BuildChain allocates a left-linked chain of n nodes in rt's heap, node
// data running base+1..base+n from the head, and returns the head's long
// pointer plus the expected data sum.
func BuildChain(rt *core.Runtime, n int, base int64) (wire.LongPtr, int64, error) {
	if n <= 0 {
		return wire.LongPtr{}, 0, fmt.Errorf("bench: chain size must be positive")
	}
	next := core.NullPtr(NodeType)
	var sum int64
	for i := n; i >= 1; i-- {
		v, err := rt.NewObject(NodeType)
		if err != nil {
			return wire.LongPtr{}, 0, err
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return wire.LongPtr{}, 0, err
		}
		if err := ref.SetInt("data", 0, base+int64(i)); err != nil {
			return wire.LongPtr{}, 0, err
		}
		if err := ref.SetPtr("left", 0, next); err != nil {
			return wire.LongPtr{}, 0, err
		}
		sum += base + int64(i)
		next = v
	}
	return next.LP, sum, nil
}
