package bench

import (
	"fmt"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/wire"
)

// This file is the streamed-transfer workload: one client faults on the
// head of a long chain whose whole closure fits the fetch budget, so a
// single FETCH pulls tens of thousands of items. With streaming the
// origin pipelines the encode as bounded KindFetchChunk frames and the
// client's faulting access unblocks as soon as chunk 0 installs; the
// ablation (StreamChunkBytes: -1) makes the same access wait for the whole
// reply to be encoded, shipped, and installed. The gap between the two
// is the time-to-first-access column — the latency the paper's
// monolithic reply model charges every large transfer.
//
// After the first access the run installs the streamed tail, which a
// background receiver parks for the thread of control, before walking
// the rest of the chain: the walk then faults zero times, every modeled
// column (messages, bytes, chunk frames) is a pure function of the
// configuration, and the rows are snapshot-checked like any other
// deterministic family.

// Stream workload space IDs (distinct from the pipeline family's).
const (
	StreamServerID uint32 = 1
	StreamClientID uint32 = 200
)

// StreamConfig parameterizes one streamed-transfer run.
type StreamConfig struct {
	// Nodes is the chain length.
	Nodes int
	// ClosureSize is the eager-transfer budget in bytes; the default is
	// large (4 MiB) so the whole chain ships on the first fault.
	ClosureSize int
	// StreamChunkBytes is the origin's streaming threshold and chunk
	// size (core.Options.StreamChunkBytes); zero keeps the core default,
	// negative disables streaming (the monolithic-reply ablation).
	StreamChunkBytes int
	// PageSize overrides the simulated page size.
	PageSize int
	// Model is the network cost model; zero value = free network.
	Model netsim.Model
}

func (c *StreamConfig) fill() error {
	if c.Nodes <= 0 {
		c.Nodes = 32767
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 4 << 20
	}
	return nil
}

// StreamPoints is the streamed-transfer sweep: a chunk-size sweep plus
// the monolithic-reply ablation.
func StreamPoints(model netsim.Model, nodes int) []Point[StreamConfig] {
	pt := func(name string, chunk int) Point[StreamConfig] {
		return Point[StreamConfig]{name, StreamConfig{Nodes: nodes, StreamChunkBytes: chunk, Model: model}}
	}
	return []Point[StreamConfig]{pt("smart-stream-16k", 16<<10), pt("smart-stream-64k", 64<<10),
		pt("smart-stream-256k", 256<<10), pt("smart-nostream", -1)}
}

// StreamResult is the outcome of one streamed-transfer run.
type StreamResult struct {
	// Traffic is the run's virtual time and traffic.
	Traffic
	// WallTime is the real elapsed time of the whole run (first access +
	// drain + verification walk).
	WallTime time.Duration
	// TTFA is the wall-clock latency of the first faulting dereference:
	// from the access to the moment its datum is readable. This is the
	// column streaming exists to shrink.
	TTFA time.Duration
	// Chunks is the number of KindFetchChunk frames within Messages (0
	// when the reply fit one frame or streaming was disabled).
	Chunks uint64
	// Fetches counts the client's FETCH messages; Faults its access
	// violations.
	Fetches, Faults uint64
	// Sum is the chain checksum (validates every item installed).
	Sum int64
}

// RunStream executes one streamed-transfer run: the server builds the
// chain, the client times its first faulting access, installs the
// streamed tail, and then walks the whole chain to verify it.
func RunStream(cfg StreamConfig) (StreamResult, error) {
	if err := cfg.fill(); err != nil {
		return StreamResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return StreamResult{}, err
	}
	defer r.close()
	opts := core.Options{
		Policy:           core.PolicySmart,
		ClosureSize:      cfg.ClosureSize,
		PageSize:         cfg.PageSize,
		StreamChunkBytes: cfg.StreamChunkBytes,
	}
	server, err := r.spaces(opts, StreamServerID)
	if err != nil {
		return StreamResult{}, err
	}
	opts.StreamChunkBytes = 0
	clients, err := r.spaces(opts, StreamClientID)
	if err != nil {
		return StreamResult{}, err
	}
	client := clients[0]
	root, want, err := BuildChain(server[0], cfg.Nodes, 0)
	if err != nil {
		return StreamResult{}, err
	}

	// The chain is built and the runtimes idle: measurement starts here.
	r.reset()
	start := time.Now()
	v, err := client.ImportPtr(root)
	if err != nil {
		return StreamResult{}, err
	}
	if err := client.BeginSession(); err != nil {
		return StreamResult{}, err
	}
	// The first dereference faults, ships the whole closure, and returns
	// as soon as the faulted datum is readable — after chunk 0 with
	// streaming, after the entire reply without.
	t0 := time.Now()
	ref, err := client.Deref(v)
	if err != nil {
		return StreamResult{}, err
	}
	first, err := ref.Int("data", 0)
	if err != nil {
		return StreamResult{}, err
	}
	ttfa := time.Since(t0)
	if first != 1 {
		return StreamResult{}, fmt.Errorf("bench: stream first access read %d, want 1", first)
	}
	// Install the streamed tail as the background receiver parks it, here
	// on the thread of control, until the stream has ended: the
	// verification walk below then finds every item resident, with zero
	// further faults and deterministic traffic.
	for deadline := time.Now().Add(30 * time.Second); client.InflightFetches() > 0; {
		if time.Now().After(deadline) {
			return StreamResult{}, fmt.Errorf("bench: stream drain did not finish")
		}
		client.InstallParked()
		time.Sleep(100 * time.Microsecond)
	}
	var sum int64
	for !v.IsNullPtr() {
		ref, err := client.Deref(v)
		if err != nil {
			return StreamResult{}, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return StreamResult{}, err
		}
		sum += d
		if v, err = ref.Ptr("left", 0); err != nil {
			return StreamResult{}, err
		}
	}
	if err := client.EndSession(); err != nil {
		return StreamResult{}, err
	}
	if sum != want {
		return StreamResult{}, fmt.Errorf("bench: stream checksum %d, want %d", sum, want)
	}
	st := client.Stats()
	return StreamResult{
		Traffic:  r.traffic(),
		WallTime: time.Since(start),
		TTFA:     ttfa,
		Chunks:   r.stats.KindMessages(uint32(wire.KindFetchChunk)),
		Fetches:  st.FetchesSent,
		Faults:   st.Faults,
		Sum:      sum,
	}, nil
}
