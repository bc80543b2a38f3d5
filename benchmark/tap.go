package main

import (
	"sync/atomic"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// epoch anchors the benchmark's one monotonic clock.
var epoch = time.Now()

// nowNs reads the monotonic clock as nanoseconds since epoch.
func nowNs() int64 { return int64(time.Since(epoch)) }

// paperModel prices every message the way the paper's testbed would have
// (SPARCstations on 10 Mbps Ethernet). The benchmark's networks run with
// a zero cost model; the modeled time is accounted here, outside the
// program, so it reads the same on the in-process switch and on TCP.
var paperModel = netsim.Ethernet10SPARC()

// counters is what the always-on counting decorator accumulates for one
// caller/callee pair.
type counters struct {
	msgs    atomic.Int64
	modelNs atomic.Int64
}

// countingNode decorates a transport.Node with two atomic adds per sent
// message and no clock read, so it stays in place on the untraced pass.
// The modeled cost is charged on the frame's encoded size, the quantity
// the in-process switch charges its own cost model.
type countingNode struct {
	transport.Node
	c *counters
}

func (n *countingNode) Send(m wire.Message) error {
	n.c.msgs.Add(1)
	n.c.modelNs.Add(int64(paperModel.Cost(m.WireSize())))
	return n.Node.Send(m)
}

// exKey identifies one request/reply exchange: the requesting space, the
// serving space, and the request's Seq (each retry attempt carries its own
// Seq, so attempts never alias). Each decorator sees one end of it, which
// makes the pairing per node "by (peer, Seq)".
type exKey struct {
	from, to uint32
	seq      uint64
}

// timingNode decorates a transport.Node for the traced pass. It pairs
// requests with replies: request Send to reply Recv is an exchange span
// on the requester, request Recv to reply Send is a serve span on the
// origin. A streamed reply (several KindFetchChunk frames sharing the
// request's Seq) closes its spans on the final chunk only.
//
// The decorator reads a message's header and payload length and nothing
// else: pooled-buffer ownership (Message.Frame) stays with the runtime and
// the inner node, so the message is passed through by value untouched.
type timingNode struct {
	transport.Node
	rec *recorder
}

func (n *timingNode) Send(m wire.Message) error {
	// The recorder looks at m before the inner Send: a TCP node recycles
	// the pooled frame behind Payload once the bytes are written.
	t0 := nowNs()
	n.rec.onSend(n.ID(), &m, t0)
	err := n.Node.Send(m)
	n.rec.sendDone(nowNs() - t0)
	return err
}

func (n *timingNode) Recv() (wire.Message, error) {
	m, err := n.Node.Recv()
	if err == nil {
		n.rec.onRecv(n.ID(), &m, nowNs())
	}
	return m, err
}
