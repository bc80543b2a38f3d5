package core

import (
	"sync"

	"smartrpc/internal/wire"
)

// The admission table decides, in one locked call per request, whether
// the dispatcher runs it (PROTOCOL.md, "Admission"). An entry per
// exchange holds the attempts seen and a state: seen for FETCH and
// INVALIDATE, whose re-execution is harmless; executing, then done with
// its reply, for CALL, WRITEBACK and ALLOCBATCH. Entries die with their
// session. The INVALIDATE that ends a participant's session keeps its
// attempt set past the retirement, since its ack may be lost and the
// ground retry it. A request that arrives later still (a participant's
// speculative FETCH outlives its return) gets an ordinary entry. The
// count bound covers those and sessions that never end here (a crashed
// ground, an origin that only served FETCHes); it evicts seen entries
// before done ones, never executing ones, so a flood of FETCHes cannot
// push a kept reply out.
const (
	admissionEntries = 256
	retiredSessions  = 16
)

type admitState uint8

const (
	admitSeen admitState = iota
	admitExecuting
	admitDone
)

// admitVerdict is the dispatcher's instruction for one request.
type admitVerdict uint8

const (
	admitExecute admitVerdict = iota
	admitDrop
	admitSwallow
	admitReplay
)

// admitKey identifies one logical exchange: the sender, its session,
// and the exchange id shared by all the exchange's attempts.
type admitKey struct {
	from uint32
	sess uint64
	xid  uint64
}

// cachedReply is a done entry's reply, resent verbatim to later attempts.
type cachedReply struct {
	kind    wire.Kind
	payload []byte
	errStr  string
}

type admitEntry struct {
	key      admitKey
	state    admitState
	attempts [4]uint64 // one bit per attempt ordinal (wire.SeqAttempt)
	lastSeq  uint64    // newest attempt's seq; the reply is addressed to it
	reply    cachedReply
}

type admissionTable struct {
	mu    sync.Mutex
	index map[admitKey]int // key → slot in ring
	// ring holds the entries by value, n of them in FIFO order from head.
	// It doubles on demand up to admissionEntries and then stays.
	ring    []admitEntry
	head, n int
	// seen counts the ring's entries in state admitSeen, so a full ring
	// without one is not swept for one.
	seen int
	// retired holds the entries of the INVALIDATEs that ended the last
	// sessions retired here.
	retired [retiredSessions]admitEntry
	nextRet int
	// dropped counts the keys deleted from index since it was made. Every
	// exchange brings a new key, and a Go map under such churn keeps
	// growing long after its live size has stopped: a lazy-policy pair's
	// index grew by 31 KB over 3 000 sessions before it levelled off. So
	// once the ring is empty and a few rings' worth of keys have been
	// dropped, retire starts a fresh index.
	dropped int
}

// indexChurn is how many dropped keys make retire start a fresh index.
const indexChurn = 4 * admissionEntries

// replayable reports whether a request kind runs at most once.
func replayable(k wire.Kind) bool {
	switch k {
	case wire.KindCall, wire.KindWriteBack, wire.KindAllocBatch:
		return true
	default:
		return false
	}
}

func keyOf(m wire.Message) admitKey {
	return admitKey{from: m.From, sess: m.Session, xid: wire.SeqXID(m.Seq)}
}

func (a *admissionTable) slot(i int) int { return (a.head + i) % len(a.ring) }

// admit returns request m's verdict, and for a replay the reply to
// resend, and records its attempt. Seq 0 marks messages outside the
// request/reply protocol and is never tracked.
func (a *admissionTable) admit(m wire.Message) (admitVerdict, cachedReply) {
	if m.Seq == 0 {
		return admitExecute, cachedReply{}
	}
	key := keyOf(m)
	word, bit := wire.SeqAttempt(m.Seq)/64, uint64(1)<<(wire.SeqAttempt(m.Seq)%64)
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.retiredLocked(key)
	if e == nil {
		i, ok := a.index[key]
		if !ok {
			// With every entry executing there is no room to make, and the
			// request runs untracked.
			if a.n < len(a.ring) || a.makeRoomLocked() {
				e = &a.ring[a.slot(a.n)]
				*e = admitEntry{key: key, state: admitSeen, lastSeq: m.Seq}
				if replayable(m.Kind) {
					e.state = admitExecuting
				} else {
					a.seen++
				}
				e.attempts[word] = bit
				a.index[key] = a.slot(a.n)
				a.n++
			}
			return admitExecute, cachedReply{}
		}
		e = &a.ring[i]
	}
	if e.attempts[word]&bit != 0 {
		return admitDrop, cachedReply{}
	}
	e.attempts[word] |= bit
	e.lastSeq = m.Seq
	switch e.state {
	case admitExecuting:
		return admitSwallow, cachedReply{}
	case admitDone:
		return admitReplay, e.reply
	}
	return admitExecute, cachedReply{}
}

// complete records the reply of an executing entry and returns the newest
// attempt's seq the reply must be addressed to. ok is false when no
// executing entry exists (the request was never admitted, or found the
// table full of executing entries), in which case the caller replies to
// the request's own seq. r.payload is kept, not copied: reply owns it.
func (a *admissionTable) complete(m wire.Message, r cachedReply) (seq uint64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, found := a.index[keyOf(m)]
	if !found || a.ring[i].state != admitExecuting {
		return 0, false
	}
	e := &a.ring[i]
	e.state, e.reply = admitDone, r
	return e.lastSeq, true
}

// retire forgets every entry of one ended session, keeping the others in
// FIFO order. by is the INVALIDATE that ended it (a zero key at the
// ground); while its entry is live it moves to retired.
func (a *admissionTable) retire(sess uint64, by admitKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i, ok := a.index[by]; ok {
		a.retired[a.nextRet] = a.ring[i]
		a.nextRet = (a.nextRet + 1) % retiredSessions
	}
	kept := 0
	for i := 0; i < a.n; i++ {
		e := a.ring[a.slot(i)]
		if e.key.sess == sess {
			delete(a.index, e.key)
			a.dropped++
			if e.state == admitSeen {
				a.seen--
			}
			continue
		}
		if kept != i {
			a.ring[a.slot(kept)] = e
			a.index[e.key] = a.slot(kept)
		}
		kept++
	}
	for i := kept; i < a.n; i++ {
		a.ring[a.slot(i)] = admitEntry{}
	}
	a.n = kept
	if kept == 0 && a.dropped >= indexChurn {
		a.index, a.dropped = make(map[admitKey]int), 0
	}
}

// retiredLocked finds key among the retired INVALIDATEs.
func (a *admissionTable) retiredLocked(key admitKey) *admitEntry {
	for i := range a.retired {
		if key.sess != 0 && a.retired[i].key == key {
			return &a.retired[i]
		}
	}
	return nil
}

// makeRoomLocked frees a slot in a full ring. Below the bound it doubles
// the ring; at the bound it evicts the oldest seen entry or, failing
// that, the oldest done one, passing the others to the back (a full
// ring's front becomes its back by advancing head), and reports false
// when every entry is executing. A sweep that finds no victim passes
// every entry once and leaves head where it was, so the seen sweep is
// skipped when the count says it would find none: a long session's CALLs
// fill the ring with done entries, and every admission would pay a full
// turn of the ring otherwise.
func (a *admissionTable) makeRoomLocked() bool {
	if len(a.ring) < admissionEntries {
		if a.index == nil {
			a.index = make(map[admitKey]int)
		}
		ring := make([]admitEntry, max(8, 2*len(a.ring)))
		for i := 0; i < a.n; i++ {
			ring[i] = a.ring[a.slot(i)]
			a.index[ring[i].key] = i
		}
		a.ring, a.head = ring, 0
		return true
	}
	for _, victim := range [...]admitState{admitSeen, admitDone} {
		if victim == admitSeen && a.seen == 0 {
			continue
		}
		for range a.n {
			e := &a.ring[a.head]
			a.head = (a.head + 1) % len(a.ring)
			if e.state == victim {
				if victim == admitSeen {
					a.seen--
				}
				delete(a.index, e.key)
				a.dropped++
				*e = admitEntry{}
				a.n--
				return true
			}
		}
	}
	return false
}
