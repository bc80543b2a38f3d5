package bench

import (
	"fmt"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
	"smartrpc/internal/wire"
)

// rig is one experiment's simulated network and the runtimes attached to
// it. Every driver builds its spaces through a rig, resets it where
// measurement starts, and reads the measured traffic from it.
type rig struct {
	clock netsim.Clock
	stats netsim.Stats
	net   *transport.Network
	// attach joins a space to the network; RunRecover routes it through
	// a faultsim chaos layer.
	attach   func(id uint32) (transport.Node, error)
	reg      *types.Registry
	runtimes []*core.Runtime
}

// newRig builds a network under model whose spaces share the experiment
// schema (NewRegistry).
func newRig(model netsim.Model) (*rig, error) {
	r := &rig{reg: NewRegistry()}
	net, err := transport.NewNetwork(model, &r.clock, &r.stats)
	if err != nil {
		return nil, err
	}
	r.net, r.attach = net, net.Attach
	return r, nil
}

// spaces attaches one space per id, in order, and starts a runtime on
// each from opts with its ID, Node and Registry filled in.
func (r *rig) spaces(opts core.Options, ids ...uint32) ([]*core.Runtime, error) {
	out := make([]*core.Runtime, len(ids))
	for i, id := range ids {
		node, err := r.attach(id)
		if err != nil {
			return nil, err
		}
		opts.ID, opts.Node, opts.Registry = id, node, r.reg
		if out[i], err = core.New(opts); err != nil {
			return nil, err
		}
		r.runtimes = append(r.runtimes, out[i])
	}
	return out, nil
}

// close closes the runtimes, last started first, and then the network.
func (r *rig) close() {
	for i := len(r.runtimes) - 1; i >= 0; i-- {
		r.runtimes[i].Close()
	}
	r.net.Close()
}

// reset zeroes the virtual clock and the traffic counters: measurement
// starts here.
func (r *rig) reset() {
	r.clock.Reset()
	r.stats.Reset()
}

// Traffic is what an experiment put on the network since measurement
// started.
type Traffic struct {
	// Time is the virtual processing time.
	Time time.Duration
	// Messages and Bytes are total network traffic.
	Messages, Bytes uint64
	// Crossings counts address-space boundary crossings of the thread of
	// control (call + return messages): the denominator for per-crossing
	// traffic metrics.
	Crossings uint64
}

func (r *rig) traffic() Traffic {
	return Traffic{
		Time:     r.clock.Now(),
		Messages: r.stats.Messages(),
		Bytes:    r.stats.Bytes(),
		Crossings: r.stats.KindMessages(uint32(wire.KindCall)) +
			r.stats.KindMessages(uint32(wire.KindReturn)),
	}
}

func (t Traffic) minus(u Traffic) Traffic {
	return Traffic{t.Time - u.Time, t.Messages - u.Messages, t.Bytes - u.Bytes, t.Crossings - u.Crossings}
}

// fleet is the shared server's ID followed by n client IDs.
func fleet(n int) []uint32 {
	ids := []uint32{PipelineServerID}
	for i := 0; i < n; i++ {
		ids = append(ids, PipelineClientID0+uint32(i))
	}
	return ids
}

// searchPair starts a caller and a callee on opts, registers the search
// procedure on the callee and builds an n-node tree in the caller.
func (r *rig) searchPair(opts core.Options, n int) (caller, callee *core.Runtime, root core.Value, err error) {
	rts, err := r.spaces(opts, CallerID, CalleeID)
	if err != nil {
		return nil, nil, root, err
	}
	if err := RegisterSearch(rts[1]); err != nil {
		return nil, nil, root, err
	}
	root, err = BuildTree(rts[0], n)
	return rts[0], rts[1], root, err
}

// search runs one session on caller that calls SearchProc repeats times
// over root, visiting up to budget nodes each time, and returns the last
// call's visit count and checksum.
func search(caller *core.Runtime, root core.Value, budget int64, update bool, repeats int) (visited, sum int64, err error) {
	if err := caller.BeginSession(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < repeats; i++ {
		res, err := caller.Call(CalleeID, SearchProc, []core.Value{
			root, core.Int64Value(budget), core.BoolValue(update),
		})
		if err != nil {
			return 0, 0, fmt.Errorf("bench: search call: %w", err)
		}
		if len(res) != 2 {
			return 0, 0, fmt.Errorf("bench: search returned %d values", len(res))
		}
		visited, sum = res[0].Int64(), res[1].Int64()
	}
	return visited, sum, caller.EndSession()
}
