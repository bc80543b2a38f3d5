// Package faultsim is a deterministic fault-injection harness for the
// smart RPC protocol. It layers a seed-driven chaos wrapper over the
// in-memory transport (faultsim.go), generates randomized session
// workloads with a value oracle (workload.go), and shrinks failing
// scenarios to a minimal reproducing configuration (shrink.go). The
// invariants it checks live in internal/core/invariant.go.
//
// Every decision — which frames are dropped, duplicated, delayed,
// corrupted, which edges are partitioned, when a space crashes — derives
// from a single uint64 seed, so a failure report is one number. The
// decision for a frame is a pure function of the frame's protocol
// identity (from, to, kind, seq), not of goroutine arrival order, so the
// same seed injects the same faults even when the Go scheduler
// interleaves differently between runs.
package faultsim

import (
	"fmt"
	"slices"
	"sync"

	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// Fault enumerates the injected fault classes.
type Fault uint8

const (
	// FaultDrop silently discards a frame.
	FaultDrop Fault = iota
	// FaultDup delivers a frame twice, back to back.
	FaultDup
	// FaultCorrupt flips bits in a copy of the frame's payload before
	// delivery. The sender's buffer is never touched — a corrupted
	// baseline on both ends would mask exactly the desynchronization
	// bugs this harness exists to find.
	FaultCorrupt
	// FaultDelay holds a reply frame back until later traffic has passed
	// it on the same edge (a bounded reordering). Only replies are
	// delayed: the protocol's single thread of control means a delayed
	// request would execute concurrently with its successor, a situation
	// the runtime is explicitly not specified to survive, while a delayed
	// reply exercises the real late-arrival paths.
	FaultDelay
	// FaultPartition reports a frame discarded by a one-way partition.
	FaultPartition
)

func (f Fault) String() string {
	switch f {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultCorrupt:
		return "corrupt"
	case FaultDelay:
		return "delay"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// Config sets per-frame fault probabilities in permille (0–1000). The
// zero value injects nothing.
type Config struct {
	// Seed drives every injection decision.
	Seed uint64
	// DropPermille is the chance a frame is discarded.
	DropPermille int
	// DupPermille is the chance a frame is delivered twice.
	DupPermille int
	// CorruptPermille is the chance a frame's payload is bit-flipped.
	CorruptPermille int
	// DelayPermille is the chance a reply frame is held back and
	// re-delivered after 1–3 subsequent frames on its edge.
	DelayPermille int
	// OnlyKinds, when non-empty, restricts drop/dup/corrupt/delay to
	// frames of the listed kinds; everything else passes through clean.
	// Partitions are unaffected — a dead link does not read headers.
	// Used by targeted oracles (e.g. "every write-back is duplicated")
	// that must fault one exchange while the recovery path's own
	// traffic stays reliable.
	OnlyKinds []wire.Kind
	// Match, when non-nil, further restricts drop/dup/corrupt/delay to
	// the frames it reports true for. It sees every frame OnlyKinds
	// admits, in send order, with From stamped, under the injector's
	// lock. It serves oracles whose exchange no kind picks out (a hashed
	// FETCH shares its kinds with the refetch that must stay reliable).
	Match func(wire.Message) bool
}

// targets reports whether the config's filters admit m.
func (cfg *Config) targets(m wire.Message) bool {
	if len(cfg.OnlyKinds) > 0 && !slices.Contains(cfg.OnlyKinds, m.Kind) {
		return false
	}
	return cfg.Match == nil || cfg.Match(m)
}

// Event records one injected fault, in injection order. The sequence of
// events is the schedule a failing seed reproduces.
type Event struct {
	Fault  Fault
	From   uint32
	To     uint32
	Kind   wire.Kind
	Seq    uint64
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("%s %d->%d %v seq=%d", e.Fault, e.From, e.To, e.Kind, e.Seq)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// held is a delayed frame waiting on its edge's traffic counter.
type held struct {
	m   wire.Message
	due uint64 // deliver when the edge counter reaches this value
}

type edgeState struct {
	counter uint64
	queue   []held
}

// Chaos wraps a transport.Network, injecting faults on the send path.
// Attach through it instead of through the network; Recv and routing are
// untouched. All methods are safe for concurrent use.
type Chaos struct {
	cfg Config
	net *transport.Network

	mu         sync.Mutex
	enabled    bool
	edges      map[uint64]*edgeState
	partitions map[uint64]bool // one-way blocked edges
	events     []Event
	counts     [5]uint64
	// held is every pooled frame a runtime received through this wrapper,
	// once per delivery, each with one reference the wrapper keeps for
	// HeldFrames.
	held []*wire.FrameBuf
}

// New wraps net with fault injection configured by cfg. Injection starts
// enabled; SetEnabled(false) turns the wrapper into a transparent
// pass-through (used by harnesses to settle a network between checks).
func New(net *transport.Network, cfg Config) *Chaos {
	return &Chaos{
		cfg:        cfg,
		net:        net,
		enabled:    true,
		edges:      make(map[uint64]*edgeState),
		partitions: make(map[uint64]bool),
	}
}

// Attach registers a space on the underlying network and returns a node
// whose sends pass through the fault injector.
func (c *Chaos) Attach(id uint32) (transport.Node, error) {
	inner, err := c.net.Attach(id)
	if err != nil {
		return nil, err
	}
	return &chaosNode{inner: inner, c: c}, nil
}

// SetEnabled toggles injection. While disabled, frames pass through
// untouched (held frames stay held until traffic or Drain releases them).
func (c *Chaos) SetEnabled(on bool) {
	c.mu.Lock()
	c.enabled = on
	c.mu.Unlock()
}

// PartitionOneWay blocks (or with on=false, heals) all traffic from one
// space to another. The reverse direction is unaffected.
func (c *Chaos) PartitionOneWay(from, to uint32, on bool) {
	c.mu.Lock()
	if on {
		c.partitions[edgeKey(from, to)] = true
	} else {
		delete(c.partitions, edgeKey(from, to))
	}
	c.mu.Unlock()
}

// Events returns a copy of the injected-fault schedule so far.
func (c *Chaos) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Count returns how many faults of the given class were injected.
func (c *Chaos) Count(f Fault) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[f]
}

// Total returns how many faults of any class were injected.
func (c *Chaos) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// HeldFrames is the frame leak oracle: it reports how many pooled frames
// handed to a runtime are still referenced by anything but the wrapper,
// and drops the wrapper's own references. Called once every runtime has
// closed, it must report zero: a runtime releases each frame it installs,
// parks and drops, serves, or discards.
//
// One buffer can reach a runtime more than once: every attempt of a
// retried request carries the request's one buffer. The wrapper holds it
// once per delivery, so a buffer leaks when it has more references than
// the wrapper's holds on it.
func (c *Chaos) HeldFrames() int {
	c.mu.Lock()
	held := c.held
	c.held = nil
	c.mu.Unlock()
	holds := make(map[*wire.FrameBuf]int, len(held))
	for _, fb := range held {
		holds[fb]++
	}
	n := 0
	for fb, k := range holds {
		if fb.Refs() > k {
			n++
		}
		for range k {
			fb.Release()
		}
	}
	return n
}

// Drain discards every delayed frame. Call it when tearing a
// scenario down so a frame held on a now-quiet edge cannot leak into the
// next scenario's state.
func (c *Chaos) Drain() {
	c.mu.Lock()
	for _, es := range c.edges {
		es.queue = nil
	}
	c.mu.Unlock()
}

func edgeKey(from, to uint32) uint64 { return uint64(from)<<32 | uint64(to) }

// splitmix64 is the standard 64-bit mixer; one call per frame gives the
// independent uniform draws for each fault class.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frameHash derives the decision word for a frame from its protocol
// identity alone. (from, seq) is unique per originating runtime and kind
// disambiguates the request/reply halves of a round trip, so scheduler
// interleaving cannot change which frames get faulted.
func (c *Chaos) frameHash(from, to uint32, kind wire.Kind, seq uint64) uint64 {
	h := splitmix64(c.cfg.Seed ^ uint64(from)<<48 ^ uint64(to)<<32 ^ uint64(kind)<<24)
	return splitmix64(h ^ seq)
}

func (c *Chaos) record(f Fault, m wire.Message, detail string) {
	c.counts[f]++
	c.events = append(c.events, Event{
		Fault: f, From: m.From, To: m.To, Kind: m.Kind, Seq: m.Seq, Detail: detail,
	})
}

// inject decides this frame's fate and returns the frames to actually
// deliver, in order (none for a drop, two for a dup, previously held
// frames that just came due are prepended by the caller).
//
// Draw layout from the 64-bit decision word: independent permille draws
// for drop, dup, corrupt, delay from separate 10-bit-ish slices, plus
// detail bits for corrupt offsets and delay distance. A frame receives
// at most one fault class (priority: partition, drop, delay, dup,
// corrupt) — compound faults on a single frame add schedule-decoding
// complexity without adding coverage, since compounds arise anyway
// across frames.
func (c *Chaos) inject(from uint32, m wire.Message) []wire.Message {
	// The underlying transport stamps m.From during Send, i.e. after this
	// layer runs, so the sender's identity comes in separately.
	m.From = from

	c.mu.Lock()
	defer c.mu.Unlock()

	es := c.edges[edgeKey(m.From, m.To)]
	if es == nil {
		es = &edgeState{}
		c.edges[edgeKey(m.From, m.To)] = es
	}
	es.counter++

	// Release held frames that this frame's passage makes due. They
	// deliver ahead of the current frame: they were sent first, the
	// delay only let `due - sent` newer frames overtake them.
	var out []wire.Message
	if len(es.queue) > 0 {
		rest := es.queue[:0]
		for _, h := range es.queue {
			if h.due <= es.counter {
				out = append(out, h.m)
			} else {
				rest = append(rest, h)
			}
		}
		es.queue = rest
	}

	if !c.enabled {
		return append(out, m)
	}
	if c.partitions[edgeKey(m.From, m.To)] {
		c.record(FaultPartition, m, "")
		// An undelivered zero-copy frame has no consumer left to release
		// its pooled buffer; recycle it here.
		m.ReleaseFrame()
		return out
	}
	if !c.cfg.targets(m) {
		return append(out, m)
	}

	h := c.frameHash(m.From, m.To, m.Kind, m.Seq)
	drawDrop := int(h % 1000)
	drawDelay := int(h >> 10 % 1000)
	drawDup := int(h >> 20 % 1000)
	drawCorrupt := int(h >> 30 % 1000)

	switch {
	case drawDrop < c.cfg.DropPermille:
		c.record(FaultDrop, m, "")
		m.ReleaseFrame() // no consumer left for a zero-copy frame
		return out
	case drawDelay < c.cfg.DelayPermille && m.Kind.IsReply():
		dist := uint64(h>>40%3) + 1
		c.record(FaultDelay, m, fmt.Sprintf("hold %d", dist))
		es.queue = append(es.queue, held{m: m, due: es.counter + dist})
		return out
	case drawDup < c.cfg.DupPermille:
		c.record(FaultDup, m, "")
		// The two deliveries must not share payload storage: the first
		// consumer of a zero-copy chunk frame releases its pooled buffer
		// after installing, which would leave the duplicate aliasing
		// recycled memory. The duplicate carries its own copy, no frame.
		d := m
		d.Payload = append([]byte(nil), m.Payload...)
		d.Frame = nil
		return append(out, m, d)
	case drawCorrupt < c.cfg.CorruptPermille && len(m.Payload) > 0:
		flips := int(h>>42%3) + 1
		cp := append([]byte(nil), m.Payload...)
		detail := ""
		for i := 0; i < flips; i++ {
			w := splitmix64(h + uint64(i) + 1)
			off := int(w % uint64(len(cp)))
			bit := byte(1) << (w >> 17 % 8)
			cp[off] ^= bit
			if i > 0 {
				detail += ","
			}
			detail += fmt.Sprintf("byte %d bit %#02x", off, bit)
		}
		m.Payload = cp
		c.record(FaultCorrupt, m, detail)
		return append(out, m)
	default:
		return append(out, m)
	}
}

type chaosNode struct {
	inner transport.Node
	c     *Chaos
}

func (n *chaosNode) ID() uint32 { return n.inner.ID() }

func (n *chaosNode) Send(m wire.Message) error {
	var firstErr error
	for _, d := range n.c.inject(n.inner.ID(), m) {
		if err := n.inner.Send(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv hands the runtime its next frame, keeping a reference to a pooled
// one so its buffer cannot be recycled before HeldFrames reads it.
func (n *chaosNode) Recv() (wire.Message, error) {
	m, err := n.inner.Recv()
	if err == nil && m.Frame != nil {
		m.Frame.Retain()
		n.c.mu.Lock()
		n.c.held = append(n.c.held, m.Frame)
		n.c.mu.Unlock()
	}
	return m, err
}

func (n *chaosNode) Close() error { return n.inner.Close() }
