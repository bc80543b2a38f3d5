package core

import (
	"fmt"
	"io"
	"sync"

	"smartrpc/internal/wire"
)

// EventKind enumerates traceable runtime events.
type EventKind int

// Event kinds, in rough lifecycle order.
const (
	EvSessionBegin EventKind = iota + 1
	EvSessionEnd
	EvCallSent
	EvCallServed
	EvFault
	EvFetchSent
	EvFetchServed
	EvInstall
	EvDirtyCollected
	EvWriteBackSent
	EvInvalidateSent
	EvAllocFlush
	EvChecksumReject
	EvValidateSent
	EvValidateHit
	EvValidateMiss
	EvPrefetchIssued
	EvPrefetchHit
	EvRebindEvict
	EvChunkSent
	EvChunkRecv
	EvChunkInstall
	// Recovery events: a retried exchange (Count carries the attempt
	// ordinal), an origin replaying a cached reply to a retried request,
	// and a client tripping the incarnation fence against a restarted
	// origin.
	EvRetry
	EvReplayedReply
	EvFenceTrip
)

var eventNames = map[EventKind]string{
	EvSessionBegin: "session-begin", EvSessionEnd: "session-end",
	EvCallSent: "call-sent", EvCallServed: "call-served",
	EvFault: "fault", EvFetchSent: "fetch-sent", EvFetchServed: "fetch-served",
	EvInstall: "install", EvDirtyCollected: "dirty-collected",
	EvWriteBackSent: "write-back-sent", EvInvalidateSent: "invalidate-sent",
	EvAllocFlush: "alloc-flush", EvChecksumReject: "checksum-reject",
	EvValidateSent: "validate-sent", EvValidateHit: "validate-hit",
	EvValidateMiss:   "validate-miss",
	EvPrefetchIssued: "prefetch-issued", EvPrefetchHit: "prefetch-hit",
	EvRebindEvict: "rebind-evict",
	EvChunkSent:   "chunk-sent", EvChunkRecv: "chunk-recv",
	EvChunkInstall: "chunk-install",
	EvRetry:        "retry", EvReplayedReply: "replayed-reply",
	EvFenceTrip: "fence-trip",
}

// EventKinds returns every defined event kind, in declaration order.
// Tests iterate it so a newly added event cannot silently escape
// coverage (the history checker depends on trace fidelity).
func EventKinds() []EventKind {
	out := make([]EventKind, 0, len(eventNames))
	for k := EvSessionBegin; ; k++ {
		if _, ok := eventNames[k]; !ok {
			break
		}
		out = append(out, k)
	}
	if len(out) != len(eventNames) {
		panic("core: eventNames holds kinds outside the contiguous Ev* range")
	}
	return out
}

// String names the event kind.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one traced runtime occurrence. Field meaning depends on Kind:
// Target is the peer space, Proc the procedure, Page the faulting page,
// Count the item/byte count involved.
type Event struct {
	Kind   EventKind
	Space  uint32
	Target uint32
	Proc   string
	Page   uint32
	LP     wire.LongPtr
	Count  int
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case EvCallSent, EvCallServed:
		return fmt.Sprintf("[%d] %v %s peer=%d", e.Space, e.Kind, e.Proc, e.Target)
	case EvFault:
		return fmt.Sprintf("[%d] %v page=%d", e.Space, e.Kind, e.Page)
	case EvFetchSent, EvWriteBackSent, EvInvalidateSent, EvAllocFlush, EvValidateSent:
		return fmt.Sprintf("[%d] %v peer=%d count=%d", e.Space, e.Kind, e.Target, e.Count)
	case EvFetchServed, EvInstall, EvDirtyCollected:
		return fmt.Sprintf("[%d] %v count=%d", e.Space, e.Kind, e.Count)
	case EvChunkSent, EvChunkRecv, EvChunkInstall:
		// Page carries the chunk ordinal; Count the item count.
		return fmt.Sprintf("[%d] %v peer=%d chunk=%d count=%d", e.Space, e.Kind, e.Target, e.Page, e.Count)
	case EvValidateHit, EvValidateMiss, EvRebindEvict:
		return fmt.Sprintf("[%d] %v %v", e.Space, e.Kind, e.LP)
	case EvPrefetchIssued, EvPrefetchHit:
		return fmt.Sprintf("[%d] %v page=%d peer=%d", e.Space, e.Kind, e.Page, e.Target)
	case EvRetry:
		// Proc carries the retried kind's name; Count the attempt ordinal.
		return fmt.Sprintf("[%d] %v %s peer=%d attempt=%d", e.Space, e.Kind, e.Proc, e.Target, e.Count)
	case EvReplayedReply:
		return fmt.Sprintf("[%d] %v peer=%d", e.Space, e.Kind, e.Target)
	case EvFenceTrip:
		// Page carries the old incarnation; Count the new one.
		return fmt.Sprintf("[%d] %v peer=%d inc=%d->%d", e.Space, e.Kind, e.Target, e.Page, e.Count)
	default:
		return fmt.Sprintf("[%d] %v", e.Space, e.Kind)
	}
}

// Tracer receives runtime events. Implementations must be safe for
// concurrent use; Trace is called on the runtime's hot paths and should
// return quickly.
type Tracer interface {
	Trace(Event)
}

// tracerBox wraps a Tracer for atomic swapping.
type tracerBox struct {
	t Tracer
}

// trace emits an event if a tracer is configured.
func (rt *Runtime) trace(e Event) {
	if t := rt.tracerNow(); t != nil {
		rt.traceTo(t, e)
	}
}

// tracerNow returns the configured tracer, or nil. A loop emitting per
// item loads it once and emits through traceTo.
func (rt *Runtime) tracerNow() Tracer {
	if box := rt.tracer.Load(); box != nil {
		return box.t
	}
	return nil
}

// traceTo emits e to t, a tracer tracerNow returned.
func (rt *Runtime) traceTo(t Tracer, e Event) {
	e.Space = rt.id
	t.Trace(e)
}

// SetTracer installs (or removes, with nil) the runtime's tracer.
// Typically set once right after New.
func (rt *Runtime) SetTracer(t Tracer) {
	rt.tracer.Store(&tracerBox{t: t})
}

// RecordingTracer collects events in memory (for tests and diagnostics).
type RecordingTracer struct {
	mu     sync.Mutex
	events []Event
}

var _ Tracer = (*RecordingTracer)(nil)

// Trace implements Tracer.
func (r *RecordingTracer) Trace(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a snapshot of the recorded events.
func (r *RecordingTracer) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns how many events of kind k were recorded.
func (r *RecordingTracer) Count(k EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Reset discards recorded events.
func (r *RecordingTracer) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}

// WriterTracer renders each event as one line to an io.Writer.
type WriterTracer struct {
	mu sync.Mutex
	w  io.Writer
}

var _ Tracer = (*WriterTracer)(nil)

// NewWriterTracer builds a line-per-event tracer.
func NewWriterTracer(w io.Writer) *WriterTracer {
	return &WriterTracer{w: w}
}

// Trace implements Tracer.
func (t *WriterTracer) Trace(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(t.w, e.String())
}
