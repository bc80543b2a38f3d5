package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"smartrpc/internal/wire"
)

// spanKind names a benchmark-side span. Spans are recorded from the
// benchmark's own files — around the session calls, in the handler, and
// in the transport decorators — never from inside the runtime.
type spanKind uint8

const (
	spOp spanKind = iota
	spBegin
	spCall
	spEnd
	spHandler
	spVisitFault     // one node visit during which the callee faulted
	spVisitsResident // all fault-free visits of the op, folded into one span
	spExchange       // request Send to (final) reply Recv, on the requester
	spServe          // request Recv to (final) reply Send, on the origin
)

var spanNames = [...]string{"op", "begin_session", "call", "end_session", "handler",
	"visit_fault", "visits_resident", "exchange", "serve"}

// The first five spans of every op have fixed ids, so a span can name its
// parent before the parent has closed.
const (
	idOp int32 = iota + 1
	idBegin
	idCall
	idEnd
	idHandler
)

// span is one timed interval of one op. Ids are 1-based within the op;
// parent 0 marks the root.
type span struct {
	id, parent int32
	kind       spanKind
	msg        wire.Kind // exchange, serve: the request's kind
	start      int64     // ns since epoch
	dur        int64     // -1 while open
	n          int32     // visits_resident: how many visits were folded in
}

// Message families, for per-kind counts and per-kind latency series.
const (
	famCall = iota
	famFetch
	famValidate
	famInvalidate
	famWriteBack
	famOther
	nFam
)

var famNames = [nFam]string{"call", "fetch", "validate", "invalidate", "write-back", "other"}

// family groups a request with its replies. Chunk frames count as fetch
// traffic: no workload here streams, and a chunk does not say which
// request kind it answers.
func family(k wire.Kind) int {
	switch k {
	case wire.KindCall, wire.KindReturn:
		return famCall
	case wire.KindFetch, wire.KindFetchReply, wire.KindFetchChunk:
		return famFetch
	case wire.KindValidate, wire.KindValidateReply:
		return famValidate
	case wire.KindInvalidate, wire.KindInvalidateAck:
		return famInvalidate
	case wire.KindWriteBack, wire.KindWriteBackAck:
		return famWriteBack
	default:
		return famOther
	}
}

// Budget rows: every span's self time (its duration minus its children's)
// lands in exactly one row, so the rows of one op sum to the op.
const (
	rowBegin = iota
	rowCallCore
	rowCallTransport
	rowResident
	rowFaultClient
	rowFaultTransport
	rowServeFetch
	rowServeValidate
	rowEndCore
	rowEndTransport
	rowServeInvalidate
	rowHarness
	nRows
)

var rowNames = [nRows]string{
	"core: begin_session",
	"core: call marshal, serve and modified-set ship (call - handler - transport)",
	"transport: CALL/RETURN exchange self",
	"core: resident node visits",
	"core: fault client self (dispatch, decode, install, swizzle)",
	"transport: FETCH/VALIDATE exchange self",
	"core: origin serves FETCH",
	"core: origin serves VALIDATE",
	"core: end_session self",
	"transport: INVALIDATE/WRITE-BACK exchange self",
	"core: peer serves INVALIDATE/WRITE-BACK",
	"benchmark: handler loop and clock reads",
}

func rowOf(s *span) int {
	fam := family(s.msg)
	switch s.kind {
	case spBegin:
		return rowBegin
	case spCall:
		return rowCallCore
	case spEnd:
		return rowEndCore
	case spVisitsResident:
		return rowResident
	case spVisitFault:
		return rowFaultClient
	case spExchange:
		switch fam {
		case famCall:
			return rowCallTransport
		case famFetch, famValidate:
			return rowFaultTransport
		default:
			return rowEndTransport
		}
	case spServe:
		switch fam {
		case famCall:
			return rowCallCore
		case famFetch:
			return rowServeFetch
		case famValidate:
			return rowServeValidate
		default:
			return rowServeInvalidate
		}
	default: // spOp, spHandler
		return rowHarness
	}
}

// sampleCap bounds every latency series the traced pass keeps; the tiny
// workload would otherwise grow them by a million entries a second.
const sampleCap = 1 << 18

func appendCapped(s []int64, v int64) []int64 {
	if len(s) < sampleCap {
		s = append(s, v)
	}
	return s
}

// retainOps is how many ops per workload keep their spans for -trace-out.
const retainOps = 16

// openEx is an exchange in flight: the ids of its two spans.
type openEx struct{ ex, srv int32 }

// recorder collects the spans of the op in progress and folds each
// finished op into per-workload aggregates. One closed-loop client means
// one thread of control; the recorder tracks which span it is inside so a
// message sent by a runtime goroutine finds its parent.
type recorder struct {
	mu        sync.Mutex
	inOp      bool
	cur       []span
	open      map[exKey]openEx
	parent    int32 // innermost open span on the thread of control
	callServe int32 // the open serve span of the op's CALL
	visitMark int   // cur index after the last fault visit
	opSends   []int64
	childSum  []int64 // scratch for endOp

	// Aggregates over the traced ops.
	ops          int
	payloadBytes int64
	famMsgs      [nFam]int64
	opNs         []int64
	beginNs      []int64
	callNs       []int64
	endNs        []int64
	handlerNs    []int64
	overheadNs   []int64 // call - handler
	residentP50  []int64
	rows         [nRows][]int64
	faultSelf    []int64
	sendNs       []int64
	serve        [nFam][]int64
	rttSelf      [nFam][]int64
	retained     [][]span
}

func newRecorder() *recorder {
	return &recorder{open: make(map[exKey]openEx)}
}

func (r *recorder) push(s span) int32 {
	s.id = int32(len(r.cur)) + 1
	r.cur = append(r.cur, s)
	return s.id
}

// beginOp starts an op at t with the thread of control in BeginSession.
func (r *recorder) beginOp(t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur = r.cur[:0]
	clear(r.open)
	r.opSends = r.opSends[:0]
	r.push(span{kind: spOp, start: t, dur: -1})
	r.push(span{kind: spBegin, parent: idOp, start: t, dur: -1})
	r.push(span{kind: spCall, parent: idOp, dur: -1})
	r.push(span{kind: spEnd, parent: idOp, dur: -1})
	r.push(span{kind: spHandler, dur: -1})
	r.parent, r.callServe, r.visitMark = idBegin, 0, len(r.cur)
	r.inOp = true
}

// advance closes span from and opens span to at t: the thread of control
// moved from BeginSession into Call, or from Call into EndSession.
func (r *recorder) advance(from, to int32, t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur[from-1].dur = t - r.cur[from-1].start
	r.cur[to-1].start = t
	r.parent = to
}

// abortOp discards the op in progress (a failed op has no budget).
func (r *recorder) abortOp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inOp = false
}

func (r *recorder) enterHandler(t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inOp {
		return
	}
	h := &r.cur[idHandler-1]
	h.start, h.parent = t, r.callServe
	r.parent = idHandler
}

// exitHandler closes the handler span and folds the op's fault-free
// visits (n of them, sum ns in total) into one child span.
func (r *recorder) exitHandler(t, sum int64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inOp {
		return
	}
	h := &r.cur[idHandler-1]
	h.dur = t - h.start
	r.push(span{kind: spVisitsResident, parent: idHandler, start: h.start, dur: sum, n: int32(n)})
	r.parent = idCall
}

// faultVisit records a node visit during which the callee faulted, and
// adopts the exchanges the handler's goroutine started within it.
func (r *recorder) faultVisit(start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inOp {
		return
	}
	id := r.push(span{kind: spVisitFault, parent: idHandler, start: start, dur: end - start})
	for i := r.visitMark; i < len(r.cur)-1; i++ {
		if s := &r.cur[i]; s.kind == spExchange && s.parent == idHandler {
			s.parent = id
		}
	}
	r.visitMark = len(r.cur)
}

// closesExchange reports whether reply m ends its exchange: every reply
// does, except a chunk of a streamed reply that is not the final one.
func closesExchange(m *wire.Message) bool {
	return m.Kind != wire.KindFetchChunk || wire.ChunkIsFinal(m.Payload)
}

// onSend observes m entering a decorated Send on space self at t. Messages
// are counted here, on entry, because every message of an op enters Send
// before the op ends, while the Send that carries the op's last ack may
// return after it.
func (r *recorder) onSend(self uint32, m *wire.Message, t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inOp {
		return
	}
	r.payloadBytes += int64(len(m.Payload))
	r.famMsgs[family(m.Kind)]++
	if !m.Kind.IsReply() {
		// A request leaves: its exchange opens under whatever span the
		// thread of control is in.
		id := r.push(span{kind: spExchange, msg: m.Kind, parent: r.parent, start: t, dur: -1})
		r.open[exKey{from: self, to: m.To, seq: m.Seq}] = openEx{ex: id}
		return
	}
	// A reply leaves: the serve span of its request closes.
	if oe := r.open[exKey{from: m.To, to: self, seq: m.Seq}]; oe.srv != 0 && closesExchange(m) {
		s := &r.cur[oe.srv-1]
		s.dur = t - s.start
	}
}

// sendDone records how long a decorated Send took.
func (r *recorder) sendDone(ns int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inOp {
		r.opSends = append(r.opSends, ns)
	}
}

// onRecv observes m leaving a decorated Recv on space self at t.
func (r *recorder) onRecv(self uint32, m *wire.Message, t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inOp {
		return
	}
	if !m.Kind.IsReply() {
		// A request arrives: its serve span opens under the requester's
		// exchange span (root, if the requester is not decorated).
		k := exKey{from: m.From, to: self, seq: m.Seq}
		oe := r.open[k]
		oe.srv = r.push(span{kind: spServe, msg: m.Kind, parent: oe.ex, start: t, dur: -1})
		r.open[k] = oe
		if m.Kind == wire.KindCall {
			r.callServe = oe.srv
		}
		return
	}
	// A reply arrives: its exchange closes.
	k := exKey{from: self, to: m.From, seq: m.Seq}
	if oe := r.open[k]; oe.ex != 0 && closesExchange(m) {
		s := &r.cur[oe.ex-1]
		s.dur = t - s.start
		delete(r.open, k)
	}
}

// endOp closes the op at t and folds it into the aggregates; residentP50
// is the median of the op's fault-free visits.
func (r *recorder) endOp(t, residentP50 int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inOp = false
	r.cur[idEnd-1].dur = t - r.cur[idEnd-1].start
	r.cur[idOp-1].dur = t - r.cur[idOp-1].start

	if cap(r.childSum) < len(r.cur)+1 {
		r.childSum = make([]int64, len(r.cur)+1)
	}
	childSum := r.childSum[:len(r.cur)+1]
	clear(childSum)
	for i := range r.cur {
		s := &r.cur[i]
		if s.dur < 0 { // an exchange nobody answered; it has no extent
			s.dur = 0
		}
		childSum[s.parent] += s.dur
	}
	var rows [nRows]int64
	for i := range r.cur {
		s := &r.cur[i]
		self := s.dur - childSum[s.id]
		rows[rowOf(s)] += self
		fam := family(s.msg)
		switch s.kind {
		case spVisitFault:
			r.faultSelf = appendCapped(r.faultSelf, self)
		case spExchange:
			r.rttSelf[fam] = appendCapped(r.rttSelf[fam], self)
		case spServe:
			r.serve[fam] = appendCapped(r.serve[fam], s.dur)
		}
	}
	for i, v := range rows {
		r.rows[i] = appendCapped(r.rows[i], v)
	}
	for _, ns := range r.opSends {
		r.sendNs = appendCapped(r.sendNs, ns)
	}
	call, handler := r.cur[idCall-1].dur, r.cur[idHandler-1].dur
	r.opNs = appendCapped(r.opNs, r.cur[idOp-1].dur)
	r.beginNs = appendCapped(r.beginNs, r.cur[idBegin-1].dur)
	r.callNs = appendCapped(r.callNs, call)
	r.endNs = appendCapped(r.endNs, r.cur[idEnd-1].dur)
	r.handlerNs = appendCapped(r.handlerNs, handler)
	r.overheadNs = appendCapped(r.overheadNs, call-handler)
	r.residentP50 = appendCapped(r.residentP50, residentP50)
	if len(r.retained) < retainOps {
		r.retained = append(r.retained, append([]span(nil), r.cur...))
	}
	r.ops++
}

// budgetRow is one line of a workload's traced budget.
type budgetRow struct {
	name string
	ms   float64
}

// budget returns the traced op median, one row per layer share (the
// median over ops of that row's per-op sum), and the share of the op
// median no layer accounts for: the benchmark's own handler loop plus
// whatever the row medians fail to add up to.
func (r *recorder) budget() (opMs float64, rows []budgetRow, unattributedPct float64) {
	opMs = median(r.opNs) / 1e6
	attributed := 0.0
	for i := 0; i < nRows; i++ {
		ms := median(r.rows[i]) / 1e6
		rows = append(rows, budgetRow{rowNames[i], ms})
		if i != rowHarness {
			attributed += ms
		}
	}
	if opMs > 0 {
		unattributedPct = 100 * math.Abs(opMs-attributed) / opMs
	}
	return opMs, rows, unattributedPct
}

func printBudget(w io.Writer, name string, r *recorder) {
	opMs, rows, un := r.budget()
	fmt.Fprintf(w, "\nbudget %s: traced op_ms_p50 %.3f ms over %d ops\n", name, opMs, r.ops)
	for _, row := range rows {
		if row.ms == 0 {
			continue
		}
		fmt.Fprintf(w, "  %10.3f ms %5.1f%%  %s\n", row.ms, 100*row.ms/opMs, row.name)
	}
	fmt.Fprintf(w, "  %10s    %5.1f%%  harness.unattributed_pct (benchmark row + what the medians do not add up to)\n", "", un)
}

// chromeEvent is one complete ("X") or metadata ("M") trace event of the
// Chrome trace-event format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders the retained ops of one workload; pid keeps the
// workloads apart in the viewer.
func (r *recorder) chromeEvents(pid int, workload string) []chromeEvent {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": workload}}}
	for op, spans := range r.retained {
		for _, s := range spans {
			name, tid := spanNames[s.kind], 1
			switch s.kind {
			case spExchange:
				name, tid = "exchange:"+s.msg.String(), 2
			case spServe:
				name, tid = "serve:"+s.msg.String(), 3
			case spVisitsResident:
				// A sum of disjoint visits, not an interval: keep it off
				// the thread-of-control lane it would appear to cover.
				tid = 4
			}
			args := map[string]any{"op": op, "id": s.id, "parent": s.parent}
			if s.n > 0 {
				args["visits"] = s.n
			}
			evs = append(evs, chromeEvent{Name: name, Ph: "X", Ts: float64(s.start) / 1e3,
				Dur: float64(s.dur) / 1e3, Pid: pid, Tid: tid, Args: args})
		}
	}
	return evs
}

func writeChromeTrace(path string, evs []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
