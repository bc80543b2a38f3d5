// Package transport moves wire messages between address spaces.
//
// Two implementations are provided. The in-memory Network connects spaces
// within one process and charges every message to a netsim cost model,
// which is how the benchmark harness reproduces the paper's measurements
// deterministically. The TCP transport (tcp.go) connects real processes
// over the network, as the original system did between SPARCstations.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/wire"
)

// ErrClosed is returned by operations on a closed node or network.
var ErrClosed = errors.New("transport: closed")

// Node is one address space's attachment to the network. Send routes by
// the message's To field; Recv blocks for the next inbound message and
// returns ErrClosed once the node is shut down.
type Node interface {
	// ID returns the attached space's identifier.
	ID() uint32
	// Send routes m to the space identified by m.To. It consumes the
	// reference m carries to a pooled frame (m.Frame), whether or not m
	// is delivered: the receiver gets it, or Send releases it.
	Send(m wire.Message) error
	// Recv blocks until a message arrives or the node closes.
	Recv() (wire.Message, error)
	// Close detaches the node; pending and future Recv calls fail.
	Close() error
}

// inboxSize bounds per-node buffering. RPC sessions have a single active
// thread, so very few messages are ever in flight; the buffer absorbs
// acks and piggybacks without blocking senders.
const inboxSize = 256

// Network is an in-process message switch with deterministic cost
// accounting. It is safe for concurrent use.
type Network struct {
	model netsim.Model
	clock *netsim.Clock
	stats *netsim.Stats

	// delay is an optional real (wall-clock) per-message latency, in
	// nanoseconds. The virtual cost model measures modeled time; the delay
	// makes latency overlap physically observable, so wall-clock
	// experiments (e.g. the prefetch pipeline) can demonstrate round trips
	// actually hidden behind computation. Zero (the default) keeps
	// delivery instantaneous.
	//
	// The delay is per frame and pipelined, like a real link's propagation
	// time: Send stamps the frame's due time and returns immediately, and
	// a per-destination delivery goroutine releases frames into the inbox
	// in FIFO order as they come due. N back-to-back frames therefore
	// arrive ~delay after their sends, not N×delay — which is what lets a
	// streamed chunk sequence overlap its flight time with the receiver's
	// decode/install work.
	delay atomic.Int64

	mu     sync.Mutex
	nodes  map[uint32]*memNode
	closed bool
}

// SetLinkDelay installs a real per-frame delivery delay (see the delay
// field). It applies to messages sent after the call. Set it before
// traffic starts: frames sent with zero delay bypass the delay queue and
// can overtake frames still held in it.
func (n *Network) SetLinkDelay(d time.Duration) { n.delay.Store(int64(d)) }

// NewNetwork creates a network charging each message to model. A nil clock
// or stats allocates fresh ones.
func NewNetwork(model netsim.Model, clock *netsim.Clock, stats *netsim.Stats) (*Network, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = &netsim.Clock{}
	}
	if stats == nil {
		stats = &netsim.Stats{}
	}
	return &Network{
		model: model,
		clock: clock,
		stats: stats,
		nodes: make(map[uint32]*memNode),
	}, nil
}

// Clock returns the network's virtual clock.
func (n *Network) Clock() *netsim.Clock { return n.clock }

// Stats returns the network's traffic counters.
func (n *Network) Stats() *netsim.Stats { return n.stats }

// Attach registers a space and returns its node.
func (n *Network) Attach(id uint32) (Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("transport: space %d already attached", id)
	}
	node := &memNode{
		id:    id,
		net:   n,
		inbox: make(chan wire.Message, inboxSize),
		done:  make(chan struct{}),
	}
	n.nodes[id] = node
	return node, nil
}

// Close shuts the network and every attached node down.
func (n *Network) Close() error {
	n.mu.Lock()
	nodes := make([]*memNode, 0, len(n.nodes))
	for _, node := range n.nodes {
		nodes = append(nodes, node)
	}
	n.closed = true
	n.mu.Unlock()
	for _, node := range nodes {
		_ = node.Close()
	}
	return nil
}

// route delivers m to its destination, charging the cost model.
func (n *Network) route(m wire.Message) error {
	n.mu.Lock()
	dst, ok := n.nodes[m.To]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("transport: no route to space %d", m.To)
	}
	size := m.WireSize()
	n.clock.Advance(n.model.Cost(size))
	n.stats.RecordKind(uint32(m.Kind), size)
	if d := n.delay.Load(); d > 0 {
		// Hand the frame to the destination's delay line. Like a real
		// NIC, the send completes once the frame is on the wire; a
		// destination that closes mid-flight just drops it.
		dst.enqueueDelayed(m, time.Now().Add(time.Duration(d)))
		return nil
	}
	// The inbox almost always has room: try a one-case send before paying
	// for the two-case select.
	select {
	case dst.inbox <- m:
		return nil
	default:
	}
	select {
	case dst.inbox <- m:
		return nil
	case <-dst.done:
		return fmt.Errorf("transport: space %d: %w", m.To, ErrClosed)
	}
}

// memNode is the in-memory Node implementation.
type memNode struct {
	id    uint32
	net   *Network
	inbox chan wire.Message

	// The delay line: frames waiting out the configured link delay, in
	// FIFO order by due time (stamped from a monotonic clock at send, so
	// arrival order equals send order). delayLoop starts lazily on the
	// first delayed frame and releases frames into the inbox as they come
	// due.
	delayMu   sync.Mutex
	delayQ    []delayedFrame
	delayWake chan struct{}
	delayOnce sync.Once

	closeOnce sync.Once
	done      chan struct{}
}

// delayedFrame is one frame in a node's delay line.
type delayedFrame struct {
	m   wire.Message
	due time.Time
}

// enqueueDelayed appends a frame to the node's delay line, starting the
// delivery goroutine on first use.
func (n *memNode) enqueueDelayed(m wire.Message, due time.Time) {
	n.delayOnce.Do(func() {
		n.delayWake = make(chan struct{}, 1)
		go n.delayLoop()
	})
	n.delayMu.Lock()
	n.delayQ = append(n.delayQ, delayedFrame{m: m, due: due})
	n.delayMu.Unlock()
	select {
	case n.delayWake <- struct{}{}:
	default:
	}
}

// delayLoop releases delayed frames into the inbox in FIFO order as they
// come due, until the node closes.
func (n *memNode) delayLoop() {
	for {
		n.delayMu.Lock()
		if len(n.delayQ) == 0 {
			n.delayMu.Unlock()
			select {
			case <-n.delayWake:
				continue
			case <-n.done:
				return
			}
		}
		f := n.delayQ[0]
		n.delayQ = n.delayQ[1:]
		n.delayMu.Unlock()
		if wait := time.Until(f.due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-n.done:
				timer.Stop()
				return
			}
		}
		select {
		case n.inbox <- f.m:
		case <-n.done:
			return
		}
	}
}

var _ Node = (*memNode)(nil)

func (n *memNode) ID() uint32 { return n.id }

func (n *memNode) Send(m wire.Message) error {
	select {
	case <-n.done:
		m.ReleaseFrame()
		return ErrClosed
	default:
	}
	m.From = n.id
	err := n.net.route(m)
	if err != nil {
		m.ReleaseFrame()
	}
	return err
}

func (n *memNode) Recv() (wire.Message, error) {
	select {
	case m := <-n.inbox:
		return m, nil
	case <-n.done:
		// Drain anything that raced with Close so shutdown is orderly.
		select {
		case m := <-n.inbox:
			return m, nil
		default:
			return wire.Message{}, ErrClosed
		}
	}
}

func (n *memNode) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.net.mu.Lock()
		delete(n.net.nodes, n.id)
		n.net.mu.Unlock()
	})
	return nil
}
