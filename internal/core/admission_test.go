package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// --- reference: the two structures the admission table replaced ---
//
// A per-peer window of recently seen (session, seq) pairs dropped exact
// duplicates, and a reply cache keyed (from, session, xid) gave the
// non-idempotent kinds at-most-once execution. Both are kept here as they
// were, except that the dispatcher's two steps are one method and resend
// returns the reply it would send instead of sending it.

const seqWindowSize = 128

type seqKey struct {
	sess uint64
	seq  uint64
}

type seqWindow struct {
	ring [seqWindowSize]seqKey
	next int
	set  map[seqKey]struct{}
}

const replayCacheEntries = 512

type replayState int

const (
	replayExecuting replayState = iota
	replayDone
)

type replayKey struct {
	from uint32
	sess uint64
	xid  uint64
}

type replayEntry struct {
	state   replayState
	lastSeq uint64
	kind    wire.Kind
	payload []byte
	errStr  string
}

type replayCache struct {
	mu      sync.Mutex
	entries map[replayKey]*replayEntry
	order   []replayKey
}

func newReplayCache() *replayCache {
	return &replayCache{entries: make(map[replayKey]*replayEntry)}
}

func replayableRequest(k wire.Kind) bool {
	switch k {
	case wire.KindCall, wire.KindWriteBack, wire.KindAllocBatch:
		return true
	default:
		return false
	}
}

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

func (rc *replayCache) resend(m wire.Message) (cachedReply, uint64, bool) {
	key := replayKey{from: m.From, sess: m.Session, xid: wire.SeqXID(m.Seq)}
	rc.mu.Lock()
	e := rc.entries[key]
	if e == nil || e.state != replayDone {
		rc.mu.Unlock()
		return cachedReply{}, 0, false
	}
	kind, payload, errStr, seq := e.kind, e.payload, e.errStr, e.lastSeq
	rc.mu.Unlock()
	return cachedReply{kind, payload, errStr}, seq, true
}

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

type refAdmission struct {
	dupMu  sync.Mutex
	dups   map[uint32]*seqWindow
	replay *replayCache
}

func (rt *refAdmission) dupRequest(from uint32, sess, seq uint64) bool {
	if seq == 0 {
		return false
	}
	rt.dupMu.Lock()
	defer rt.dupMu.Unlock()
	w := rt.dups[from]
	if w == nil {
		w = &seqWindow{set: make(map[seqKey]struct{}, seqWindowSize)}
		rt.dups[from] = w
	}
	k := seqKey{sess: sess, seq: seq}
	if _, ok := w.set[k]; ok {
		return true
	}
	if old := w.ring[w.next]; old != (seqKey{}) {
		delete(w.set, old)
	}
	w.ring[w.next] = k
	w.next = (w.next + 1) % seqWindowSize
	w.set[k] = struct{}{}
	return false
}

// admit is the old dispatcher's two steps; a replay comes with the seq
// the reply was addressed to.
func (rt *refAdmission) admit(m wire.Message) (admitVerdict, cachedReply, uint64) {
	if rt.dupRequest(m.From, m.Session, m.Seq) {
		return admitDrop, cachedReply{}, 0
	}
	if replayableRequest(m.Kind) {
		switch rt.replay.admit(m) {
		case admitReplay:
			r, seq, _ := rt.replay.resend(m)
			return admitReplay, r, seq
		case admitSwallow:
			return admitSwallow, cachedReply{}, 0
		}
	}
	return admitExecute, cachedReply{}, 0
}

// --- the differential test ---

// modelExchange is one logical exchange of the generated stream.
type modelExchange struct {
	from uint32
	sess uint64
	xid  uint64
	kind wire.Kind
	used [4]uint64 // attempt ordinals sent
	done bool      // a replayable exchange's reply was completed
	late bool      // opened after its session retired
}

func (x *modelExchange) msg(attempt uint8) wire.Message {
	return wire.Message{Kind: x.kind, From: x.from, Session: x.sess, Seq: wire.SeqWithAttempt(x.xid, attempt)}
}

// TestAdmissionMatchesReference drives the admission table and the dup
// window plus reply cache it replaced with the same seeded streams of
// requests (new exchanges, retries, exact duplicates), completions and
// session retirements, and requires the same verdict, the same replayed
// reply and the same reply address everywhere. The streams stay inside
// the reference's bounds — a duplicate repeats one of its peer's last
// 100 distinct requests, and a session retires before the live entries
// reach 200, below both bounds — and inside what the transport delivers
// once a session retired: duplicates and new attempts of the INVALIDATE
// that ended it, and new exchanges (a participant's late speculative
// FETCH). Half the retirements are a participant's, by an INVALIDATE,
// and half a ground's, by no exchange.
func TestAdmissionMatchesReference(t *testing.T) {
	kinds := []wire.Kind{wire.KindCall, wire.KindFetch, wire.KindWriteBack, wire.KindInvalidate, wire.KindAllocBatch}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab admissionTable
		ref := &refAdmission{dups: make(map[uint32]*seqWindow), replay: newReplayCache()}
		var (
			active, retired []uint64
			ended           []uint64 // sessions retired by an INVALIDATE
			exchanges       []*modelExchange
			byXID           = map[uint64]*modelExchange{}
			endedBy         = map[uint64]*modelExchange{}
			sent            = map[uint32][]wire.Message{} // distinct requests per peer
			nextXID         uint64
			nextSess        uint64
			late            int
			counts          = map[admitVerdict]int{}
		)
		// live reports whether x has an entry in the table.
		live := func(x *modelExchange) bool { return x.late || slices.Contains(active, x.sess) }
		entries := func() int {
			n := 0
			for _, x := range exchanges {
				if live(x) {
					n++
				}
			}
			return n
		}
		// arrives reports whether a new attempt or a duplicate of x may
		// still reach the table.
		arrives := func(x *modelExchange) bool {
			return live(x) || endedBy[x.sess] == x && slices.Contains(ended[max(0, len(ended)-retiredSessions):], x.sess)
		}
		send := func(m wire.Message, what string) {
			t.Helper()
			got, gr := tab.admit(m)
			want, wr, wseq := ref.admit(m)
			if got != want {
				t.Fatalf("seed %d: %s %v from %d sess %#x seq %#x: verdict %d, reference %d",
					seed, what, m.Kind, m.From, m.Session, m.Seq, got, want)
			}
			if got == admitReplay && (gr.kind != wr.kind || !bytes.Equal(gr.payload, wr.payload) || gr.errStr != wr.errStr || wseq != m.Seq) {
				t.Fatalf("seed %d: replay of seq %#x: %+v, reference %+v to seq %#x", seed, m.Seq, gr, wr, wseq)
			}
			counts[got]++
		}
		open := func(sess uint64, kind wire.Kind) *modelExchange {
			nextXID++
			x := &modelExchange{from: uint32(1 + rng.Intn(3)), sess: sess, xid: nextXID, kind: kind}
			x.used[0] = 1
			exchanges = append(exchanges, x)
			byXID[x.xid] = x
			m := x.msg(0)
			sent[x.from] = append(sent[x.from], m)
			send(m, "new")
			return x
		}
		retire := func(i int) {
			sess := active[i]
			var by admitKey
			if rng.Intn(2) == 0 {
				x := open(sess, wire.KindInvalidate)
				endedBy[sess] = x
				ended = append(ended, sess)
				by = keyOf(x.msg(0))
			}
			tab.retire(sess, by)
			ref.replay.dropSession(sess)
			retired = append(retired, sess)
			active = slices.Delete(active, i, i+1)
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case len(active) == 0 || r < 3 && len(active) < 4:
				nextSess++
				active = append(active, uint64(1+rng.Intn(3))<<32|nextSess)
			case r < 30 || len(exchanges) == 0:
				open(active[rng.Intn(len(active))], kinds[rng.Intn(len(kinds))])
			case r < 32:
				// A new exchange in a retired session.
				if len(retired) == 0 || late == 20 {
					continue
				}
				late++
				open(retired[rng.Intn(len(retired))], kinds[rng.Intn(len(kinds))]).late = true
			case r < 55:
				// A retry: an unused attempt ordinal of a live exchange, or
				// of the INVALIDATE that ended a recently retired session.
				x := exchanges[rng.Intn(len(exchanges))]
				if !arrives(x) {
					continue
				}
				a := uint8(rng.Intn(256))
				if x.used[a/64]&(1<<(a%64)) != 0 {
					continue
				}
				x.used[a/64] |= 1 << (a % 64)
				m := x.msg(a)
				sent[x.from] = append(sent[x.from], m)
				send(m, "retry")
			case r < 75:
				// An exact duplicate of a recent request.
				from := uint32(1 + rng.Intn(3))
				log := sent[from]
				if len(log) == 0 {
					continue
				}
				m := log[len(log)-1-rng.Intn(min(len(log), 100))]
				if !arrives(byXID[wire.SeqXID(m.Seq)]) {
					continue
				}
				send(m, "duplicate")
			case r < 95:
				// A completion, of an executing exchange or not.
				x := exchanges[rng.Intn(len(exchanges))]
				if !live(x) {
					continue
				}
				m := x.msg(0)
				reply := cachedReply{kind: x.kind.ReplyKind(), payload: []byte(fmt.Sprint(rng.Int())), errStr: []string{"", "boom"}[rng.Intn(2)]}
				seq, ok := tab.complete(m, reply)
				wseq, wok := ref.replay.complete(m, reply.kind, reply.payload, reply.errStr)
				if seq != wseq || ok != wok {
					t.Fatalf("seed %d: complete xid %d: (%#x, %v), reference (%#x, %v)", seed, x.xid, seq, ok, wseq, wok)
				}
				if ok != (replayable(x.kind) && !x.done) {
					t.Fatalf("seed %d: complete xid %d (%v) = %v", seed, x.xid, x.kind, ok)
				}
				x.done = x.done || ok
			default:
				if len(active) > 1 {
					retire(rng.Intn(len(active)))
				}
			}
			if entries() >= 200 {
				retire(0)
			}
			if n := entries(); tab.n != n {
				t.Fatalf("seed %d: table holds %d entries, the model %d", seed, tab.n, n)
			}
		}
		for _, v := range []admitVerdict{admitExecute, admitDrop, admitSwallow, admitReplay} {
			if counts[v] == 0 {
				t.Errorf("seed %d: the stream never produced verdict %d: %v", seed, v, counts)
			}
		}
		if late == 0 {
			t.Errorf("seed %d: the stream opened no exchange in a retired session", seed)
		}
	}
}

// --- the table's own cases ---

func TestAdmissionVerdicts(t *testing.T) {
	var tab admissionTable
	req := wire.Message{From: 2, Session: 9, Seq: wire.SeqWithAttempt(41, 0), Kind: wire.KindWriteBack}
	verdict := func(m wire.Message, want admitVerdict, what string) cachedReply {
		t.Helper()
		v, r := tab.admit(m)
		if v != want {
			t.Fatalf("%s: verdict %d, want %d", what, v, want)
		}
		return r
	}
	verdict(req, admitExecute, "first attempt")
	verdict(req, admitDrop, "duplicate of the executing attempt")
	// A retry arriving mid-execution is swallowed, and its newer seq
	// becomes the reply address.
	retry := req
	retry.Seq = wire.SeqWithAttempt(41, 1)
	verdict(retry, admitSwallow, "mid-execution retry")
	seq, ok := tab.complete(req, cachedReply{kind: wire.KindWriteBackAck, payload: []byte{1, 2}})
	if !ok || seq != retry.Seq {
		t.Fatalf("complete = (%d, %v), want (%d, true)", seq, ok, retry.Seq)
	}
	verdict(retry, admitDrop, "duplicate of the swallowed retry")
	// A retry after completion replays, once: its duplicate is dropped.
	retry.Seq = wire.SeqWithAttempt(41, 200)
	if r := verdict(retry, admitReplay, "post-completion retry"); r.kind != wire.KindWriteBackAck || !bytes.Equal(r.payload, []byte{1, 2}) {
		t.Fatalf("replayed %+v", r)
	}
	verdict(retry, admitDrop, "duplicate of the replayed retry")
	// Completing twice is refused (the entry is already done).
	if _, ok := tab.complete(req, cachedReply{kind: wire.KindWriteBackAck}); ok {
		t.Error("second complete accepted")
	}

	// An idempotent kind executes every new attempt and drops duplicates,
	// and has no reply to complete.
	fetch := wire.Message{From: 2, Session: 9, Seq: wire.SeqWithAttempt(42, 0), Kind: wire.KindFetch}
	verdict(fetch, admitExecute, "fetch")
	verdict(fetch, admitDrop, "duplicate fetch")
	if _, ok := tab.complete(fetch, cachedReply{kind: wire.KindFetchReply}); ok {
		t.Error("a fetch completed an entry")
	}
	fetch.Seq = wire.SeqWithAttempt(42, 1)
	verdict(fetch, admitExecute, "fetch retry")
	// The same xid from another sender, or in another session, is another
	// exchange.
	other := req
	other.From = 3
	verdict(other, admitExecute, "another sender")
	other.From, other.Session = 2, 10
	verdict(other, admitExecute, "another session")

	// Retiring the session at the ground forgets its exchanges and keeps
	// no record; the other session is untouched. A request that arrives
	// after the retirement is a new exchange.
	tab.retire(9, admitKey{})
	if tab.n != 1 || tab.nextRet != 0 {
		t.Fatalf("%d entries and %d records after retiring session 9 at the ground, want 1 and 0", tab.n, tab.nextRet)
	}
	verdict(other, admitDrop, "duplicate in the surviving session")
	verdict(req, admitExecute, "late request in the retired session")
	verdict(req, admitDrop, "duplicate of the late request")

	// A participant's INVALIDATE retires its session and keeps its attempt
	// set: a duplicate is dropped, a retry runs once. Other requests of the
	// session are new exchanges, and the retry's serve retires them too.
	inv := wire.Message{From: 2, Session: 10, Seq: wire.SeqWithAttempt(50, 0), Kind: wire.KindInvalidate}
	verdict(inv, admitExecute, "invalidate")
	tab.retire(10, keyOf(inv))
	if tab.n != 1 || tab.nextRet != 1 {
		t.Fatalf("%d entries and %d records after retiring session 10, want 1 and 1", tab.n, tab.nextRet)
	}
	verdict(inv, admitDrop, "duplicate invalidate after retirement")
	verdict(other, admitExecute, "late request in the retired session")
	inv.Seq = wire.SeqWithAttempt(50, 1)
	verdict(inv, admitExecute, "invalidate retry after retirement")
	tab.retire(10, keyOf(inv))
	if tab.n != 1 || tab.nextRet != 1 {
		t.Fatalf("%d entries and %d records after the retry's retirement, want 1 and 1", tab.n, tab.nextRet)
	}
	verdict(inv, admitDrop, "duplicate of the invalidate retry")
	// Seq 0 is never tracked; session 0 is tracked as usual.
	zero := wire.Message{From: 2, Kind: wire.KindCall}
	verdict(zero, admitExecute, "seq 0")
	verdict(zero, admitExecute, "seq 0 again")
	zero.Seq = 5
	verdict(zero, admitExecute, "session 0")
	verdict(zero, admitDrop, "session 0 duplicate")
}

func TestAdmissionEviction(t *testing.T) {
	var tab admissionTable
	msg := func(kind wire.Kind, xid uint64, attempt uint8) wire.Message {
		return wire.Message{From: 3, Session: 1, Seq: wire.SeqWithAttempt(xid, attempt), Kind: kind}
	}
	verdict := func(m wire.Message, want admitVerdict, what string) {
		t.Helper()
		if v, _ := tab.admit(m); v != want {
			t.Errorf("%s: verdict %d, want %d", what, v, want)
		}
	}
	// One entry stays executing for the whole test: eviction must skip it.
	pinned := msg(wire.KindWriteBack, 1, 0)
	verdict(pinned, admitExecute, "pinned")
	// Done entries fill half the table; FETCHes churn through the rest.
	for xid := uint64(2); xid < 2+admissionEntries/2; xid++ {
		verdict(msg(wire.KindWriteBack, xid, 0), admitExecute, "write-back")
		tab.complete(msg(wire.KindWriteBack, xid, 0), cachedReply{kind: wire.KindWriteBackAck})
	}
	for xid := uint64(1000); xid < 1000+2*admissionEntries; xid++ {
		verdict(msg(wire.KindFetch, xid, 0), admitExecute, "fetch")
	}
	if tab.n != admissionEntries || len(tab.index) != admissionEntries {
		t.Errorf("table holds %d entries (%d indexed), bound is %d", tab.n, len(tab.index), admissionEntries)
	}
	// The FETCH flood evicted only FETCHes, oldest first.
	verdict(msg(wire.KindWriteBack, 2, 1), admitReplay, "oldest write-back after the fetch flood")
	verdict(msg(wire.KindFetch, 1000, 0), admitExecute, "oldest fetch (forgotten)")
	verdict(msg(wire.KindFetch, 1000+2*admissionEntries-1, 0), admitDrop, "newest fetch")
	// With no FETCH left to evict, done entries go oldest first; the
	// executing entry survives every round.
	for xid := uint64(5000); xid < 5000+admissionEntries; xid++ {
		verdict(msg(wire.KindWriteBack, xid, 0), admitExecute, "write-back churn")
		tab.complete(msg(wire.KindWriteBack, xid, 0), cachedReply{kind: wire.KindWriteBackAck})
	}
	verdict(msg(wire.KindWriteBack, 3, 1), admitExecute, "oldest write-back after the churn (forgotten)")
	verdict(msg(wire.KindWriteBack, 5000+admissionEntries-1, 1), admitReplay, "newest write-back")
	verdict(msg(wire.KindWriteBack, 1, 1), admitSwallow, "pinned entry after the churn")

	// A table full of executing entries admits the next request
	// untracked: it executes, and its reply goes to its own seq.
	var full admissionTable
	for xid := uint64(1); xid <= admissionEntries; xid++ {
		full.admit(wire.Message{From: 4, Session: 2, Seq: xid, Kind: wire.KindCall})
	}
	extra := wire.Message{From: 4, Session: 2, Seq: admissionEntries + 1, Kind: wire.KindCall}
	if v, _ := full.admit(extra); v != admitExecute {
		t.Errorf("overflow verdict = %v, want execute", v)
	}
	if _, ok := full.complete(extra, cachedReply{}); ok || full.n != admissionEntries {
		t.Errorf("overflow request was recorded: complete ok %v, %d entries", ok, full.n)
	}
	full.retire(2, admitKey{})
	if full.n != 0 || len(full.index) != 0 {
		t.Errorf("%d entries (%d indexed) after retirement, want 0", full.n, len(full.index))
	}
}

// makeRoomSweep is makeRoomLocked as it was before the table counted its
// seen entries: at the bound, every call sweeps the whole ring for a seen
// entry before it looks for a done one.
func makeRoomSweep(a *admissionTable) bool {
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
		for range a.n {
			e := &a.ring[a.head]
			a.head = (a.head + 1) % len(a.ring)
			if e.state == victim {
				delete(a.index, e.key)
				*e = admitEntry{}
				a.n--
				return true
			}
		}
	}
	return false
}

// clone copies the table's ring state for a side-by-side step.
func (a *admissionTable) clone() *admissionTable {
	return &admissionTable{index: maps.Clone(a.index), ring: slices.Clone(a.ring), head: a.head, n: a.n, seen: a.seen}
}

// TestMakeRoomMatchesSweep holds makeRoomLocked to the sweep it replaced.
// Seeded random streams of admissions, completions and retirements, in
// phases that favour FETCHes (seen entries), CALLs left executing or CALLs
// completed, bring the table to its bound in every mix; before each
// admission into a full ring, both functions run on copies and must agree
// on the result, the ring, its head and the index. After every step the
// seen count matches the ring.
func TestMakeRoomMatchesSweep(t *testing.T) {
	var noSeen, withSeen, refused int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab admissionTable
		var live []wire.Message // admitted and not retired
		var xid uint64
		sessions := []uint64{1, 2, 3}
		var pFetch, pComplete float64
		for op := 0; op < 3000; op++ {
			if op%250 == 0 {
				pFetch, pComplete = rng.Float64()*rng.Float64(), rng.Float64()
			}
			switch r := rng.Float64(); {
			case r < 0.6:
				xid++
				m := wire.Message{From: uint32(1 + rng.Intn(2)), Session: sessions[rng.Intn(len(sessions))], Seq: wire.SeqWithAttempt(xid, 0), Kind: wire.KindCall}
				if rng.Float64() < pFetch {
					m.Kind = wire.KindFetch
				}
				if tab.n == admissionEntries {
					got, want := tab.clone(), tab.clone()
					ok, wok := got.makeRoomLocked(), makeRoomSweep(want)
					if ok != wok || got.head != want.head || got.n != want.n ||
						!reflect.DeepEqual(got.ring, want.ring) || !maps.Equal(got.index, want.index) {
						t.Fatalf("seed %d op %d: makeRoomLocked = %v (head %d, %d entries), the sweep %v (head %d, %d entries)",
							seed, op, ok, got.head, got.n, wok, want.head, want.n)
					}
					switch {
					case !ok:
						refused++
					case tab.seen == 0:
						noSeen++
					default:
						withSeen++
					}
				}
				tab.admit(m)
				live = append(live, m)
			case r < 0.6+0.35*pComplete:
				if len(live) > 0 {
					m := live[rng.Intn(len(live))]
					tab.complete(m, cachedReply{kind: m.Kind.ReplyKind()})
				}
			case r < 0.99:
			default:
				i := rng.Intn(len(sessions))
				sess := sessions[i]
				tab.retire(sess, admitKey{})
				live = slices.DeleteFunc(live, func(m wire.Message) bool { return m.Session == sess })
				sessions[i] = sessions[len(sessions)-1] + 1
			}
			seen := 0
			for i := 0; i < tab.n; i++ {
				if tab.ring[tab.slot(i)].state == admitSeen {
					seen++
				}
			}
			if seen != tab.seen {
				t.Fatalf("seed %d op %d: the ring holds %d seen entries, the count says %d", seed, op, seen, tab.seen)
			}
		}
	}
	if noSeen == 0 || withSeen == 0 || refused == 0 {
		t.Errorf("the streams never made room without a seen entry (%d), with one (%d), or refused (%d)", noSeen, withSeen, refused)
	}
	t.Logf("full-ring admissions: %d without a seen entry, %d with one, %d refused", noSeen, withSeen, refused)
}

// TestAdmissionConcurrent: the dispatcher admits, serve goroutines
// complete and retire, all on one table. Four senders run sessions at
// once, each seeing exactly its own verdicts; run it with -race.
func TestAdmissionConcurrent(t *testing.T) {
	var tab admissionTable
	var wg sync.WaitGroup
	for from := uint32(1); from <= 4; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := uint64(1); s <= 200; s++ {
				sess := uint64(from)<<32 | s
				call := wire.Message{From: from, Session: sess, Seq: 1, Kind: wire.KindCall}
				fetch := wire.Message{From: from, Session: sess, Seq: 2, Kind: wire.KindFetch}
				inv := wire.Message{From: from, Session: sess, Seq: 3, Kind: wire.KindInvalidate}
				retry := call
				retry.Seq = wire.SeqWithAttempt(1, 1)
				for _, step := range []struct {
					m    wire.Message
					want admitVerdict
				}{{call, admitExecute}, {fetch, admitExecute}, {call, admitDrop}, {retry, admitSwallow}, {inv, admitExecute}} {
					if v, _ := tab.admit(step.m); v != step.want {
						t.Errorf("sender %d session %d seq %#x: verdict %d, want %d", from, s, step.m.Seq, v, step.want)
						return
					}
				}
				if seq, ok := tab.complete(call, cachedReply{kind: wire.KindReturn}); !ok || seq != retry.Seq {
					t.Errorf("sender %d session %d: complete = %#x, %v", from, s, seq, ok)
					return
				}
				tab.retire(sess, keyOf(inv))
			}
		}()
	}
	wg.Wait()
	if tab.n != 0 {
		t.Errorf("%d entries after every session retired, want 0", tab.n)
	}
}

// TestAdmissionAllocs: once the table is warm, a session's admissions,
// completions and retirement allocate nothing — entries live by value in
// the ring, and the reply kept is the one reply was handed.
func TestAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var tab admissionTable
	reply := cachedReply{kind: wire.KindReturn, payload: []byte{1}}
	sess := uint64(1)
	cycle := func() {
		sess++
		for xid := uint64(1); xid <= 6; xid++ {
			m := wire.Message{From: 2, Session: sess, Seq: wire.SeqWithAttempt(xid, 0), Kind: wire.KindFetch}
			if xid%3 == 0 {
				m.Kind = wire.KindCall
			}
			tab.admit(m)
			tab.admit(m)
			tab.complete(m, reply)
			m.Seq = wire.SeqWithAttempt(xid, 1)
			tab.admit(m)
		}
		inv := wire.Message{From: 2, Session: sess, Seq: 7, Kind: wire.KindInvalidate}
		tab.admit(inv)
		tab.retire(sess, keyOf(inv))
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("an admit → complete → retire cycle allocates %.1f times, want 0", n)
	}
}

// TestAdmissionEndsWithSession is the unbounded-growth oracle for the
// admission table. A persistent ground and callee run 2 000 sessions in
// each policy; every session's handler makes one callback into the
// ground's own session and reads a third origin's tree, which only ever
// serves FETCHes and so is never sent the INVALIDATE. After every
// EndSession the table is empty on the ground and on the callee — the
// callback's entry included, which a ground used to keep until eviction
// — and the third origin's stays within the bound.
func TestAdmissionEndsWithSession(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*Options)
	}{
		{"smart-warm", func(*Options) {}},
		{"smart-nowarm", func(o *Options) { o.DisableWarmCache = true }},
		{"eager", func(o *Options) { o.Policy = PolicyEager }},
		{"lazy", func(o *Options) { o.Policy = PolicyLazy }},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = net.Close() })
			reg := newTestRegistry(t)
			var rts [3]*Runtime
			for i := range rts {
				node, err := net.Attach(uint32(i + 1))
				if err != nil {
					t.Fatal(err)
				}
				o := Options{ID: uint32(i + 1), Node: node, Registry: reg}
				c.mut(&o)
				if rts[i], err = New(o); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = rts[i].Close() })
			}
			ground, callee, third := rts[0], rts[1], rts[2]
			err = ground.Register("help", func(_ *Ctx, args []Value) ([]Value, error) {
				return []Value{Int64Value(args[0].Int64() + 1)}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			err = callee.Register("work", func(ctx *Ctx, args []Value) ([]Value, error) {
				back, err := ctx.Call(ctx.Caller(), "help", []Value{Int64Value(0)})
				if err != nil {
					return nil, err
				}
				mine, err := sumTree(ctx.Runtime(), args[0])
				if err != nil {
					return nil, err
				}
				v, err := ctx.Runtime().ImportPtr(wire.LongPtr{Space: uint32(args[1].Int64()), Addr: vmem.VAddr(args[2].Int64()), Type: nodeType})
				if err != nil {
					return nil, err
				}
				theirs, err := sumTree(ctx.Runtime(), v)
				if err != nil {
					return nil, err
				}
				return []Value{Int64Value(back[0].Int64() + mine + theirs)}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			root, far := buildTree(t, ground, 3), buildTree(t, third, 2)
			want := 1 + wantSum(3) + wantSum(2)
			for i := 0; i < 2000; i++ {
				// The third origin's tree travels as two integers, so the
				// ground neither caches nor marshals it.
				space, addr := Int64Value(int64(far.LP.Space)), Int64Value(int64(far.LP.Addr))
				if got := sessionCall(t, ground, 2, "work", root, space, addr)[0].Int64(); got != want {
					t.Fatalf("session %d result = %d, want %d", i, got, want)
				}
				for _, rt := range []*Runtime{ground, callee} {
					rt.admission.mu.Lock()
					n := rt.admission.n
					rt.admission.mu.Unlock()
					if n != 0 {
						t.Fatalf("after session %d space %d holds %d admission entries, want 0", i, rt.ID(), n)
					}
				}
			}
			third.admission.mu.Lock()
			n, fetches := third.admission.n, third.Stats().FetchesServed
			third.admission.mu.Unlock()
			if fetches == 0 || n > admissionEntries {
				t.Errorf("third origin served %d fetches and holds %d admission entries; want some, and at most %d", fetches, n, admissionEntries)
			}
			t.Logf("third origin: %d fetches served, %d entries held", fetches, n)

			// An aborted session retires its entries too, at the ground
			// (the callback it served) and at the participant (the call).
			if err := ground.BeginSession(); err != nil {
				t.Fatal(err)
			}
			sess := ground.Session()
			space, addr := Int64Value(int64(far.LP.Space)), Int64Value(int64(far.LP.Addr))
			if _, err := ground.Call(2, "work", []Value{root, space, addr}); err != nil {
				t.Fatal(err)
			}
			for _, rt := range []*Runtime{ground, callee} {
				if keyed(rt, sess) == 0 {
					t.Fatalf("space %d admitted nothing in the session to abort", rt.ID())
				}
				rt.AbortSession()
				if k := keyed(rt, sess); k != 0 {
					t.Errorf("space %d holds %d admission entries of its aborted session, want 0", rt.ID(), k)
				}
			}
		})
	}
}

// keyed counts rt's admission entries of session sess.
func keyed(rt *Runtime, sess uint64) int {
	rt.admission.mu.Lock()
	defer rt.admission.mu.Unlock()
	k := 0
	for key := range rt.admission.index {
		if key.sess == sess {
			k++
		}
	}
	return k
}

// TestEndSessionWhileParticipantPrefetches: a participant's speculative
// FETCHes outlive its return, so one can reach another participant after
// that participant's INVALIDATE retired the session. It must be served:
// the prefetching participant drains its speculation before it acks its
// own INVALIDATE, and with no CallTimeout an unanswered FETCH would hang
// the ground's EndSession. G calls A, A calls B and faults on B's chain,
// and A's speculative FETCHes to B are held until B has acked.
//
// The hold is armed before A's fault, so the speculation that fault
// starts is held however soon it leaves. It spares the faulting page's
// own FETCHes: the fault completes that page, joining any speculative
// exchange for it, and a held one would park the handler until EndSession.
// Every other page the speculation reaches is beyond what the handler
// reads. Once the faulting page is resident the next page of the chain is
// predicted, and the handler returns only after its FETCH is held.
func TestEndSessionWhileParticipantPrefetches(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	bAcked := make(chan struct{})
	var ackOnce sync.Once
	var rts [3]*Runtime
	var armed atomic.Bool
	var faultPage atomic.Uint32 // the cache page A's handler faults on
	var held atomic.Int64
	holding := make(chan struct{}) // closed when the first FETCH is held
	nodes := []*flakyNode{{}, {sendHook: func(m wire.Message) error {
		if m.Kind != wire.KindFetch || m.To != 3 || !armed.Load() {
			return nil
		}
		p, err := wire.DecodeFetchPayload(m.Payload)
		if err != nil || !p.Speculative {
			return nil // the demand FETCH passes
		}
		if addr, ok := rts[1].table.LookupLP(p.Wants[0]); ok && rts[1].space.PageOf(addr) != faultPage.Load() {
			if held.Add(1) == 1 {
				close(holding)
			}
			<-bAcked
		}
		return nil
	}}, {sendHook: func(m wire.Message) error {
		if m.Kind == wire.KindInvalidateAck {
			ackOnce.Do(func() { close(bAcked) })
		}
		return nil
	}}}
	for i, node := range nodes {
		id := uint32(i + 1)
		if node.Node, err = net.Attach(id); err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg}
		if id == 2 {
			o.Prefetch, o.ClosureSize = true, 128
		}
		if rts[i], err = New(o); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rts[i].Close() })
	}
	ground, a, b := rts[0], rts[1], rts[2]
	head, _ := buildChain(t, b, 2048, 0)
	if err := b.Register("join", func(*Ctx, []Value) ([]Value, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	err = a.Register("work", func(ctx *Ctx, _ []Value) ([]Value, error) {
		if _, err := ctx.Call(3, "join", nil); err != nil {
			return nil, err
		}
		v, err := ctx.Runtime().ImportPtr(head)
		if err != nil {
			return nil, err
		}
		faultPage.Store(ctx.Runtime().space.PageOf(v.Addr))
		armed.Store(true)
		ref, err := ctx.Runtime().Deref(v)
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		// Return only once the speculation is past the faulting page and
		// held: launched any later, it could find the session already
		// ending and never leave.
		select {
		case <-holding:
		case <-time.After(10 * time.Second):
			return nil, errors.New("no speculative FETCH beyond the faulting page was sent")
		}
		return []Value{Int64Value(d)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ground.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if res, err := ground.Call(2, "work", nil); err != nil || res[0].Int64() != 1 {
		t.Fatalf("work = %v, %v; want 1", res, err)
	}
	ended := make(chan error, 1)
	go func() { ended <- ground.EndSession() }()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("EndSession hung: a late speculative FETCH went unanswered")
	}
	if held.Load() == 0 {
		t.Error("no speculative FETCH beyond the faulting page was held; the test exercised nothing")
	}
}

// TestInvalidateAckNotStalledBySpeculation bounds the invalidation stall
// (ROADMAP 2(b)): a participant holds a speculative FETCH whose reply a
// transport hook withholds, with no CallTimeout, so that exchange never
// ends. The participant's serveInvalidate must still ack within a second:
// teardown drops what speculation parked instead of waiting for it. As
// in TestEndSessionWhileParticipantPrefetches, the faulting page's own
// FETCHes pass, so the handler itself completes.
func TestInvalidateAckNotStalledBySpeculation(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	var rts [2]*Runtime
	var armed atomic.Bool
	var faultPage atomic.Uint32
	var withheldSeqs sync.Map
	withheld := make(chan struct{})
	var withholdOnce sync.Once
	p := &flakyNode{
		sendHook: func(m wire.Message) error {
			if m.Kind != wire.KindFetch || !armed.Load() {
				return nil
			}
			fp, err := wire.DecodeFetchPayload(m.Payload)
			if err != nil || !fp.Speculative {
				return nil
			}
			if addr, ok := rts[1].table.LookupLP(fp.Wants[0]); ok && rts[1].space.PageOf(addr) != faultPage.Load() {
				withheldSeqs.Store(m.Seq, true)
			}
			return nil
		},
		recvHook: func(m wire.Message) (bool, time.Duration) {
			if _, ok := withheldSeqs.Load(m.Seq); ok && m.Kind.IsReply() {
				withholdOnce.Do(func() { close(withheld) })
				return false, 0
			}
			return true, 0
		},
	}
	for i, node := range []*flakyNode{{}, p} {
		id := uint32(i + 1)
		if node.Node, err = net.Attach(id); err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg}
		if id == 2 {
			o.Prefetch, o.ClosureSize = true, 128
		}
		if rts[i], err = New(o); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rts[i].Close() })
	}
	ground, part := rts[0], rts[1]
	head, _ := buildChain(t, ground, 2048, 0)
	err = part.Register("work", func(ctx *Ctx, _ []Value) ([]Value, error) {
		v, err := ctx.Runtime().ImportPtr(head)
		if err != nil {
			return nil, err
		}
		faultPage.Store(ctx.Runtime().space.PageOf(v.Addr))
		armed.Store(true)
		ref, err := ctx.Runtime().Deref(v)
		if err != nil {
			return nil, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		select {
		case <-withheld:
		case <-time.After(10 * time.Second):
			return nil, errors.New("no speculative reply beyond the faulting page was withheld")
		}
		return []Value{Int64Value(d)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ground.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if res, err := ground.Call(2, "work", nil); err != nil || res[0].Int64() != 1 {
		t.Fatalf("work = %v, %v; want 1", res, err)
	}
	ended := make(chan error, 1)
	go func() { ended <- ground.EndSession() }()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("the participant did not ack its INVALIDATE within 1s: teardown waited on a withheld speculative reply")
	}
	if n, m := part.InflightFetches(), part.ParkedFrames(); n != 0 || m != 0 {
		t.Errorf("participant holds %d registry entries and %d parked frames after its INVALIDATE", n, m)
	}
}
