package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"smartrpc/internal/wire"
)

// The exchange engine: the runtime's one client-side network primitive,
// "send a request to the space that owns the data, wait for the answer"
// — used alike by the call, the page-fault data request (§3.2) and the
// end-of-session write-back and invalidation (§3.4).
//
// An exchange registers one waiter under one sequence number, sends the
// request, and is handed reply frames until a final one. The origin picks
// the reply form: the classic single reply frame, or a KindFetchChunk
// sequence closed by a FINAL chunk. The engine does not care — a
// monolithic reply is the final frame of a one-frame stream — so every
// waiter accepts either form. What is written here and nowhere else:
//
//   - the registration (pendingTable.register) and the dispatcher's one
//     lookup (pendingTable.deliver);
//   - sending an attempt (exchange.send) and awaiting a frame under the
//     deadline (exchange.next);
//   - the per-frame classification (exchange.classify): checksum reject,
//     then incarnation fence, then the chunk sequence contract;
//   - the attempt loop (Runtime.exchange): exchange id plus attempt
//     ordinal, backoff, budget, EvRetry.
//
// DESIGN.md "One exchange engine" draws the state machine.

// pendingTable is the exchanges awaiting reply frames, keyed by the
// sequence number of their current attempt. Its mutex also guards the
// receive queues of those exchanges, so a delivery is atomic with the
// lookup that found its waiter: once drop returns, no frame of the
// dropped attempt can reach the exchange, whatever it is reused for. One
// mutex, one map: every hold is a map operation and a slice append, three
// per exchange, beside at least one network round trip; lock stripes do
// not win BenchmarkPendingTable (DESIGN.md "One exchange engine").
type pendingTable struct {
	mu sync.Mutex
	m  map[uint64]*exchange
}

func newPendingTable() *pendingTable {
	return &pendingTable{m: make(map[uint64]*exchange)}
}

// register files x as the waiter for its current attempt's frames.
func (s *pendingTable) register(x *exchange) {
	s.mu.Lock()
	s.m[x.seq] = x
	x.live = true
	s.mu.Unlock()
}

// deliver queues reply frame m for the exchange registered under its
// sequence number and wakes it; a final frame ends the registration, so
// a duplicate of it finds no waiter. It reports false, touching nothing,
// when no exchange is registered: the waiter timed out, retried under a
// fresh attempt number, or never existed. Never blocks.
func (s *pendingTable) deliver(m wire.Message, final bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.m[m.Seq]
	if !ok {
		return false
	}
	if final {
		delete(s.m, m.Seq)
		x.live = false
	}
	switch {
	case len(x.q)-x.head >= exchangeQueueMax:
		// The peer is violating the protocol. The frame is dropped; the
		// gap it leaves fails the attempt's chunk sequence, or its deadline.
		m.ReleaseFrame()
		return true
	case x.head > 0 && len(x.q) == cap(x.q):
		// Reclaim the consumed prefix before growing.
		n := copy(x.q, x.q[x.head:])
		clear(x.q[n:])
		x.q, x.head = x.q[:n], 0
	}
	x.q = append(x.q, m)
	select {
	case x.wake <- struct{}{}:
	default:
	}
	return true
}

// drop ends x's registration, if the dispatcher has not already, and
// releases every frame still queued.
func (s *pendingTable) drop(x *exchange) {
	s.mu.Lock()
	if x.live {
		delete(s.m, x.seq)
	}
	x.unqueue()
	s.mu.Unlock()
}

// drain drops every registered exchange. Only Close calls it, after
// closing rt.stop: the waiters are already waking with ErrClosed.
func (s *pendingTable) drain() {
	s.mu.Lock()
	for seq, x := range s.m {
		delete(s.m, seq)
		x.unqueue()
	}
	s.mu.Unlock()
}

// exchangeQueueMax bounds the undelivered frames one exchange queues. A
// well-behaved origin never gets near it (the consumer drains chunks as
// fast as they decode).
const exchangeQueueMax = 4096

// exchangeQueuePooled is the largest queue backing array (in frames) a
// pooled exchange keeps.
const exchangeQueuePooled = 64

// exchange is one request/reply exchange in flight: the identity of its
// current attempt, the chunk sequence position, and the receive queue the
// dispatcher fills without ever blocking.
type exchange struct {
	rt        *Runtime
	peer      uint32
	kind      wire.Kind // of the request
	seq       uint64    // current attempt: exchange id + attempt ordinal
	asm       chunkAssembler
	abandoned bool

	// Guarded by rt.pending.mu. live: registered there under seq. q[head:]
	// are the frames not yet popped.
	live bool
	q    []wire.Message
	head int
	wake chan struct{}
}

// exchangePool recycles exchanges with their queue and wake channel, so a
// steady-state round trip allocates nothing here. An exchange returns
// only after its final frame was popped with nothing queued behind it —
// never after a deadline, a shutdown or an abandoned attempt, and never
// while a background receiver still holds it (release).
var exchangePool = sync.Pool{
	New: func() any { return &exchange{wake: make(chan struct{}, 1)} },
}

// unqueue clears the queue, releasing the frames. Caller holds the
// pending table's mutex.
func (x *exchange) unqueue() {
	x.live = false
	for i := x.head; i < len(x.q); i++ {
		x.q[i].ReleaseFrame()
	}
	clear(x.q)
	x.q, x.head = x.q[:0], 0
}

// pop removes the oldest queued frame. clean reports that the exchange is
// no longer registered and holds nothing more.
func (x *exchange) pop() (m wire.Message, ok, clean bool) {
	s := x.rt.pending
	s.mu.Lock()
	if x.head < len(x.q) {
		m, ok = x.q[x.head], true
		x.q[x.head] = wire.Message{} // a pooled queue must not pin the frame
		if x.head++; x.head == len(x.q) {
			x.q, x.head = x.q[:0], 0
		}
	}
	clean = !x.live && len(x.q) == 0
	s.mu.Unlock()
	return m, ok, clean
}

// abandon gives up on the current attempt: late frames for it find no
// waiter and are dropped by the dispatcher (Stats.StaleReplyDrops).
func (x *exchange) abandon() {
	x.abandoned = true
	x.rt.pending.drop(x)
}

// release returns a cleanly finished exchange to the pool.
func (x *exchange) release() {
	if x.abandoned {
		return
	}
	x.rt = nil
	if cap(x.q) > exchangeQueuePooled {
		x.q = nil
	}
	exchangePool.Put(x)
}

// send issues one attempt of req under seq. A request in a pooled frame
// goes out under a reference of its own, which Send consumes: the caller
// keeps its reference for later attempts.
func (x *exchange) send(req wire.Message, seq uint64) error {
	x.seq, x.asm = seq, chunkAssembler{xid: seq}
	req.Seq = seq
	req.Seal()
	if req.Frame != nil {
		req.Frame.Retain()
	}
	x.rt.pending.register(x)
	if err := x.rt.node.Send(req); err != nil {
		x.abandon()
		return fmt.Errorf("send %v to space %d: %w", x.kind, x.peer, err)
	}
	return nil
}

// next awaits the current attempt's next frame, or the runtime's shutdown,
// or the deadline: a fresh CallTimeout window per awaited frame, so a
// streamed reply that makes progress chunk by chunk is never penalized
// for its length, and no timer at all when CallTimeout is unset.
func (x *exchange) next() (m wire.Message, clean bool, err error) {
	rt := x.rt
	var deadline <-chan time.Time
	if rt.callTimeout > 0 {
		timer := time.NewTimer(rt.callTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for {
		if m, ok, clean := x.pop(); ok {
			return m, clean, nil
		}
		select {
		case <-x.wake:
		case <-deadline:
			return wire.Message{}, false, fmt.Errorf("%v to space %d after %v: %w",
				x.kind, x.peer, rt.callTimeout, ErrDeadline)
		case <-rt.stop:
			return wire.Message{}, false, ErrClosed
		}
	}
}

// checksumRejectErr is the reply-surface rendering of a frame that
// failed integrity verification: the dispatcher substitutes it for a
// corrupted reply's untrustworthy payload, and answers a corrupted
// request with it. It is the one remote error string that marks a
// transient wire fault rather than an application outcome.
const checksumRejectErr = "wire: frame checksum mismatch (corrupted in flight)"

// errCorruptReply is checksumRejectErr as classify reports it.
var errCorruptReply = errors.New(checksumRejectErr)

// classify judges one reply frame of the current attempt. transient
// marks a failure a fresh attempt can outrun; any other error is
// terminal. The order is load-bearing. A corrupted frame's incarnation
// word is garbage, so the checksum rejection precedes the fence. Every
// other frame's word is trustworthy (the origin sealed it), so the fence
// precedes everything else — including the reply's own Err: a restarted
// origin answers a stale session's requests with errors, and the restart
// is the diagnosis, not the symptom. An application error is not an
// engine error: the frame is final and goes to the caller, who may want
// its payload (Call installs the modified data set of a failed RETURN).
func (x *exchange) classify(m *wire.Message) (final, transient bool, err error) {
	if m.Err == checksumRejectErr {
		return false, true, fmt.Errorf("%v to space %d: %w", x.kind, x.peer, errCorruptReply)
	}
	if err := x.rt.fenceCheck(x.peer, m.Inc); err != nil {
		return false, false, err
	}
	switch {
	case m.Kind == x.kind.ReplyKind():
		if x.asm.next > 0 {
			return false, false, fmt.Errorf("core: %v frame inside a chunk stream from space %d", m.Kind, x.peer)
		}
		return true, false, nil
	case m.Kind != wire.KindFetchChunk || x.kind != wire.KindFetch:
		return false, false, fmt.Errorf("core: %v frame in reply to %v to space %d", m.Kind, x.kind, x.peer)
	case m.Err != "":
		return true, false, nil // the origin's serve failed mid-stream
	}
	h, err := wire.DecodeFetchChunkHeader(m.Payload)
	if err != nil {
		return false, false, fmt.Errorf("%v to space %d: %w", x.kind, x.peer, err)
	}
	if err := x.asm.accept(&h); err != nil {
		// A dropped, duplicated or reordered chunk: the stream is torn,
		// but a retry streams it afresh.
		return false, true, fmt.Errorf("%v to space %d: %w", x.kind, x.peer, err)
	}
	return h.Final, false, nil
}

// chunkAssembler validates the chunk sequence of one streamed reply:
// ordinals must be contiguous from zero, every chunk must echo the
// attempt's sequence number, and nothing may follow the final chunk. Any
// violation — a dropped, duplicated, or reordered chunk — is a protocol
// error; the attempt is abandoned and refetched rather than a torn
// closure installed.
type chunkAssembler struct {
	xid  uint64
	next uint32
	done bool
}

// accept validates one chunk header against the stream position.
func (a *chunkAssembler) accept(p *wire.FetchChunkPayload) error {
	if a.done {
		return fmt.Errorf("core: chunk %d after final chunk", p.Chunk)
	}
	if p.XID != a.xid {
		return fmt.Errorf("core: chunk xid %d does not match exchange %d", p.XID, a.xid)
	}
	if p.Chunk != a.next {
		return fmt.Errorf("core: chunk ordinal %d, expected %d (dropped or reordered chunk)", p.Chunk, a.next)
	}
	a.next++
	if p.Final {
		a.done = true
	}
	return nil
}

// frameFunc consumes one classified reply frame and owns its pooled
// buffer (wire.Message.ReleaseFrame). An error is terminal for the
// exchange. detach, on a frame that is not the final one, returns the
// exchange with the rest of the attempt unconsumed (Runtime.exchange).
type frameFunc func(m wire.Message) (detach bool, err error)

// frames feeds the current attempt's reply frames to on until the final
// one. Every failure abandons the attempt.
func (x *exchange) frames(on frameFunc) (detached, transient bool, err error) {
	for {
		m, clean, err := x.next()
		if err != nil {
			x.abandon()
			return false, !errors.Is(err, ErrClosed), err
		}
		final, transient, err := x.classify(&m)
		if err != nil {
			m.ReleaseFrame()
			x.abandon()
			return false, transient, err
		}
		detach, err := on(m)
		if err != nil || final && !clean {
			x.abandon()
		}
		if err != nil || final {
			return false, false, err
		}
		if detach {
			return true, false, nil
		}
	}
}

// exchange runs one logical request/reply exchange with req.To under
// the runtime's retry policy. One exchange id is allocated for the whole
// exchange; each attempt travels under a distinct Seq (the id plus the
// attempt ordinal in the top bits), so a late reply to an abandoned
// attempt misses the pending table instead of masquerading as the
// current attempt's, and the origin's admission table recognizes a retry by
// its id. sent, when non-nil, runs before each attempt goes out (the
// per-attempt counters and events). A transient failure — deadline, send
// error, frame corrupted in flight, torn chunk sequence — is re-issued
// after a capped exponential backoff while Options.RetryBudget and
// MaxRetries last; with the budget unset this is exactly one attempt,
// nothing more on the wire than the seed protocol. open is non-nil only
// when on detached: the caller owes it the rest of its frames and the
// release. Those frames never retry: a failure just leaves data
// non-resident for a later demand fetch.
func (rt *Runtime) exchange(req wire.Message, sent func(), on frameFunc) (open *exchange, err error) {
	x := exchangePool.Get().(*exchange)
	x.rt, x.peer, x.kind, x.abandoned = rt, req.To, req.Kind, false
	xid := rt.seq.Add(1) & wire.SeqXIDMask
	var budgetEnd time.Time
	if rt.retryBudget > 0 {
		budgetEnd = time.Now().Add(rt.retryBudget)
	}
	for a := 0; ; a++ {
		if sent != nil {
			sent()
		}
		var detached, transient bool
		if err = x.send(req, wire.SeqWithAttempt(xid, uint8(a))); err != nil {
			transient = !errors.Is(err, ErrClosed)
		} else {
			detached, transient, err = x.frames(on)
		}
		if !transient {
			if err == nil && a > 0 {
				rt.stats.retrySuccesses.Add(1)
			}
			if detached {
				return x, nil
			}
			x.release()
			return nil, err
		}
		if rt.retryBudget <= 0 {
			return nil, err
		}
		delay := retryBackoff(rt.id, xid, a)
		if a >= rt.maxRetries || !time.Now().Add(delay).Before(budgetEnd) {
			rt.stats.retriesExhausted.Add(1)
			return nil, err
		}
		select {
		case <-time.After(delay):
		case <-rt.stop:
			return nil, ErrClosed
		}
		rt.stats.retries.Add(1)
		rt.trace(Event{Kind: EvRetry, Target: x.peer, Proc: x.kind.String(), Count: a + 1})
	}
}

// roundTrip is the exchange of a request answered by one frame: it sends
// req and returns the reply. A reply carrying Err is the caller's to
// interpret — including a checksum-rejected reply that outlived the
// retry budget, which surfaces on Err exactly as a single-shot exchange
// has always surfaced it.
func (rt *Runtime) roundTrip(req wire.Message) (wire.Message, error) {
	var reply wire.Message
	_, err := rt.exchange(req, nil, func(m wire.Message) (bool, error) {
		reply = m
		return false, nil
	})
	if errors.Is(err, errCorruptReply) {
		return wire.Message{Kind: req.Kind.ReplyKind(), Err: checksumRejectErr}, nil
	}
	return reply, err
}
