package core

import (
	"slices"
	"sync"

	"smartrpc/internal/wire"
)

// The at-most-once reply cache. A client that retries an exchange
// re-sends the same request under a fresh attempt sequence number (same
// xid, higher attempt ordinal — see wire.SeqXID). For idempotent
// exchanges (FETCH, INVALIDATE) re-execution is harmless and
// nothing is cached. For the non-idempotent ones — CALL runs an
// arbitrary handler, WRITEBACK applies modifications and advances
// per-edge coherency versions, ALLOCBATCH allocates heap — a retry
// whose original did execute (only its reply was lost) must not run
// again. The dispatcher therefore admits every non-idempotent request
// through this cache:
//
//   - unseen xid        → execute; an entry is opened in the executing
//     state so a retry arriving mid-execution is recognized;
//   - executing xid     → swallow the retry, recording its seq so the
//     eventual reply is addressed to the newest attempt (the older
//     attempts' waiters are gone);
//   - completed xid     → replay the cached reply bytes to the retry's
//     seq without touching the heap.
//
// Entries are bounded (replayCacheEntries) with FIFO eviction that
// skips still-executing entries, and a session's entries are dropped
// when its INVALIDATE retires the session: the transport delivers each
// route in FIFO order, so every retry of a session's exchanges has
// arrived by the time its end-of-session INVALIDATE does.
const replayCacheEntries = 512

type replayState int

const (
	replayExecuting replayState = iota
	replayDone
)

// replayKey identifies one logical exchange: the sender, its session,
// and the exchange id shared by all the exchange's attempts.
type replayKey struct {
	from uint32
	sess uint64
	xid  uint64
}

type replayEntry struct {
	state   replayState
	lastSeq uint64 // newest attempt's seq; replies are addressed to it
	kind    wire.Kind
	payload []byte
	errStr  string
}

type replayCache struct {
	mu      sync.Mutex
	entries map[replayKey]*replayEntry
	order   []replayKey // insertion order; eviction scans from the front
}

func newReplayCache() *replayCache {
	return &replayCache{entries: make(map[replayKey]*replayEntry)}
}

// replayableRequest reports whether a request kind executes under
// at-most-once admission.
func replayableRequest(k wire.Kind) bool {
	switch k {
	case wire.KindCall, wire.KindWriteBack, wire.KindAllocBatch:
		return true
	default:
		return false
	}
}

// admitVerdict is the dispatcher's instruction for one admitted request.
type admitVerdict int

const (
	admitExecute admitVerdict = iota
	admitReplay
	admitSwallow
)

// admit classifies request m against the cache (see the package comment
// above for the three verdicts) and opens an executing entry for an
// unseen exchange.
func (rc *replayCache) admit(m wire.Message) admitVerdict {
	key := replayKey{from: m.From, sess: m.Session, xid: wire.SeqXID(m.Seq)}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.entries[key]
	if e == nil {
		rc.evictLocked()
		rc.entries[key] = &replayEntry{state: replayExecuting, lastSeq: m.Seq}
		rc.order = append(rc.order, key)
		return admitExecute
	}
	e.lastSeq = m.Seq
	if e.state == replayExecuting {
		return admitSwallow
	}
	return admitReplay
}

// complete records the reply for an executing entry and returns the
// newest attempt's seq the reply must be addressed to. ok is false when
// no executing entry exists (the request was not admitted — an
// idempotent kind, or the entry was evicted mid-execution), in which
// case the caller replies to the request's own seq. payload is kept, not
// copied: reply owns it.
func (rc *replayCache) complete(m wire.Message, kind wire.Kind, payload []byte, errStr string) (uint64, bool) {
	key := replayKey{from: m.From, sess: m.Session, xid: wire.SeqXID(m.Seq)}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.entries[key]
	if e == nil || e.state != replayExecuting {
		return 0, false
	}
	e.state = replayDone
	e.kind = kind
	e.payload = payload
	e.errStr = errStr
	return e.lastSeq, true
}

// resend replays a completed entry's cached reply to retry m.
func (rc *replayCache) resend(rt *Runtime, m wire.Message) {
	key := replayKey{from: m.From, sess: m.Session, xid: wire.SeqXID(m.Seq)}
	rc.mu.Lock()
	e := rc.entries[key]
	if e == nil || e.state != replayDone {
		rc.mu.Unlock()
		return
	}
	kind, payload, errStr, seq := e.kind, e.payload, e.errStr, e.lastSeq
	rc.mu.Unlock()
	rt.replyRaw(m.From, m.Session, seq, kind, payload, errStr)
}

// dropSession discards every entry belonging to one retired session,
// from the eviction order too: order holds exactly the keys of entries.
func (rc *replayCache) dropSession(sess uint64) {
	rc.mu.Lock()
	for k := range rc.entries {
		if k.sess == sess {
			delete(rc.entries, k)
		}
	}
	rc.order = slices.DeleteFunc(rc.order, func(k replayKey) bool { return k.sess == sess })
	rc.mu.Unlock()
}

// evictLocked makes room for one insertion, scanning the FIFO order
// from the front and skipping (re-queuing) entries still executing.
// Caller holds rc.mu.
func (rc *replayCache) evictLocked() {
	if len(rc.entries) < replayCacheEntries {
		return
	}
	scan := len(rc.order)
	for i := 0; i < scan && len(rc.entries) >= replayCacheEntries; i++ {
		k := rc.order[0]
		rc.order = rc.order[1:]
		if rc.entries[k].state == replayExecuting {
			rc.order = append(rc.order, k)
		} else {
			delete(rc.entries, k)
		}
	}
}
