package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"smartrpc/internal/arch"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// Policy selects the pointer-transfer strategy. The paper evaluates its
// proposed method (PolicySmart) against two baselines built on the same
// substrate.
type Policy int

// Policies.
const (
	// PolicySmart is the paper's method: protected page areas, page-fault
	// driven fetch with a bounded eager closure, caching, and the session
	// coherency protocol.
	PolicySmart Policy = iota + 1
	// PolicyEager marshals the full transitive closure of every pointer
	// argument with the call (rpcgen-style), so the callee never faults.
	PolicyEager
	// PolicyLazy performs a callback for every pointer dereference, with
	// no caching — even repeated dereferences of the same pointer.
	PolicyLazy
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicySmart:
		return "smart"
	case PolicyEager:
		return "eager"
	case PolicyLazy:
		return "lazy"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Traversal selects the closure traversal order (§3.3; breadth-first is
// the paper's choice, depth-first is the ablation).
type Traversal int

// Traversal orders.
const (
	TraverseBFS Traversal = iota + 1
	TraverseDFS
)

// Coherence selects how the modified data set moves (§3.4).
type Coherence int

// Coherence protocols.
const (
	// CoherencePiggyback ships dirty cached data with every control
	// transfer (the paper's protocol).
	CoherencePiggyback Coherence = iota + 1
	// CoherenceWriteBack sends dirty data home to its origin space on
	// every control transfer instead (naive ablation). Correct only when
	// no third space re-reads data it cached before the modification; the
	// benchmarks use it on two-party workloads.
	CoherenceWriteBack
)

// Sentinel errors.
var (
	// ErrNoSession is returned by Call outside an RPC session.
	ErrNoSession = errors.New("core: no RPC session in progress")
	// ErrSessionBusy is returned when a message for a different session
	// arrives while one is active.
	ErrSessionBusy = errors.New("core: another RPC session is in progress")
	// ErrUnknownProc is returned for calls to unregistered procedures.
	ErrUnknownProc = errors.New("core: unknown remote procedure")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: runtime closed")
	// ErrDeadline is returned when a remote round trip exceeds the
	// runtime's CallTimeout: the peer is partitioned, crashed, or the
	// request or reply frame was lost. Match with errors.Is.
	ErrDeadline = errors.New("core: remote call deadline exceeded")
	// ErrOriginRestarted is returned when a reply carries a restart
	// incarnation different from the one this runtime first observed for
	// that origin: the origin crashed and came back with a fresh heap, so
	// every address this space still holds from it is resurrected
	// garbage. The error is never retried — consuming data from the new
	// incarnation under old pointers would silently read reused
	// addresses. Warm-cache state for the origin is demoted before the
	// error surfaces. Match with errors.Is.
	ErrOriginRestarted = errors.New("core: origin space restarted")
	// ErrIndexRange is returned by a Ref accessor whose element index lies
	// outside the field: below zero, or at or past its Count (a scalar
	// field has one element). Match with errors.Is.
	ErrIndexRange = errors.New("core: element index out of range")
)

// Handler is a remote procedure body. Arguments and results are Values;
// pointer Values dereference transparently through the Ref API.
type Handler func(ctx *Ctx, args []Value) ([]Value, error)

// Options configures a Runtime.
type Options struct {
	// ID is the address-space identifier (must be nonzero and unique on
	// the network, and must not have the top bit set — that range is
	// reserved for provisional allocation bookkeeping).
	ID uint32
	// Node attaches the runtime to the network.
	Node transport.Node
	// Registry is the shared type database.
	Registry *types.Registry
	// PageSize overrides the simulated page size (default 4096).
	PageSize int
	// Profile sets the simulated architecture (default SPARC32).
	Profile arch.Profile
	// Policy selects smart/eager/lazy (default smart).
	Policy Policy
	// ClosureSize is the eager transfer budget in bytes (default 8192,
	// the paper's setting).
	ClosureSize int
	// AllocPolicy selects cache page grouping (default per-origin).
	AllocPolicy swizzle.AllocPolicy
	// Traversal selects closure order (default breadth-first).
	Traversal Traversal
	// Coherence selects the coherency protocol (default piggyback).
	Coherence Coherence
	// DisableDeltaShip turns off delta shipping on the coherency path and
	// restores the paper's full-shipping protocol: every crossing
	// re-transmits the complete canonical encoding of every item in the
	// modified data set. The setting must be identical on every space of
	// a network — a full-shipping receiver rejects delta items. Used by
	// benchmarks and regression tests to measure the delta-shipping win.
	DisableDeltaShip bool
	// Concurrent makes the simulated address space take an internal lock
	// on data copies, giving word-level atomicity between application
	// goroutines that share the runtime outside the RPC protocol (e.g. a
	// multithreaded TCP server). It also switches the modified data set
	// to precise per-object write tracking: when other clients' sessions
	// can commit between this space's fetch and its write-back,
	// page-grain dirty shipping would carry stale unwritten neighbors
	// home and overwrite their committed values. The default relies on
	// the protocol's single-active-thread property (§3.1, §3.4) and is
	// lock-free, shipping at page grain exactly as the paper specifies.
	Concurrent bool
	// CallTimeout bounds every remote round trip this runtime issues:
	// Call requests, fetches, write-backs, invalidations, and alloc-batch
	// flushes. Zero (the default) waits forever, the seed protocol's
	// behavior. With a timeout set, a lost frame or a partitioned or
	// crashed peer fails the operation with an error matching ErrDeadline
	// instead of blocking the session indefinitely.
	CallTimeout time.Duration
	// CheckInvariants runs the coherency invariant checker
	// (invariant.go) after every address-space boundary crossing: on
	// every outbound transfer payload, after every batch of installed
	// items, and at session teardown. A violation surfaces as an error
	// matching ErrInvariant on the operation that crossed the boundary.
	// Intended for tests and chaos soaks; off by default.
	CheckInvariants bool
	// DisableWarmCache restores the seed teardown behavior for the smart
	// policy: session-end invalidation discards cached pages outright
	// instead of demoting them to revalidatable stale copies
	// (warmcache.go). Used by benchmarks and regression tests to measure
	// the warm-cache win; the other policies never cache across sessions
	// either way.
	DisableWarmCache bool
	// Prefetch enables the speculative pointer-graph prefetcher
	// (prefetch.go): when installs swizzle pointers into non-resident
	// pages, FETCHes for the predicted-next pages go out before the
	// application faults on them, at most prefetchDepth in flight per
	// origin. Their replies are received in the background and parked;
	// the application's own thread installs them at its next fault or
	// control transfer, with no round trip. Speculation is never
	// load-bearing — a failed or dropped prefetch degrades silently to the
	// ordinary demand fetch — and a demand fault on a page whose prefetch
	// is in flight joins it instead of re-requesting. Off by default: the
	// demand path's message counts and wire bytes are exactly the seed
	// protocol's.
	Prefetch bool
	// SyncPrefetch runs speculative exchanges inline on the goroutine
	// that triggered them instead of in the background. Latency no longer
	// overlaps computation — the mode exists for the deterministic
	// benchmark rows and for tests, where background timing would make
	// message counts race-dependent. The protocol on the wire is
	// identical either way.
	SyncPrefetch bool
	// StreamChunkBytes is both the streaming threshold and the chunk
	// size for served FETCH replies: a reply whose encoded items stay at
	// or under the limit goes out as the classic single reply frame
	// (byte-identical to the seed protocol), a larger one streams as a
	// KindFetchChunk sequence whose chunks each carry about this many
	// item bytes. Streaming unblocks the faulting access as soon as its
	// page is resident, while later chunks are still being encoded and
	// sent; the client receives those in the background, parks them, and
	// installs them on the application's own thread at its next fault or
	// control transfer. Zero selects the default (1 MiB — above every
	// reply the committed benchmark snapshots produce, so their wire traffic is
	// unchanged); a negative value forces every served reply monolithic
	// regardless of size (the seed behavior), which benchmarks and
	// regression tests use to measure the streaming win.
	StreamChunkBytes int
	// RetryBudget enables transparent exchange recovery: when an
	// individual round trip fails transiently (deadline, send error, or
	// a frame corrupted in flight), the runtime re-issues the exchange
	// under a fresh attempt sequence number with capped exponential
	// backoff and deterministic jitter, for up to RetryBudget of total
	// wall-clock time per exchange. Zero (the default) disables retries
	// entirely — every attempt is a single shot, the seed behavior, and
	// nothing on the wire changes. Retries only make sense with
	// CallTimeout set (an infinite wait never fails transiently).
	RetryBudget time.Duration
	// MaxRetries caps re-issued attempts per exchange beyond the first
	// (default 6 when RetryBudget is set; values above 255 clamp — the
	// attempt ordinal travels in the top 8 bits of Seq).
	MaxRetries int
	// Incarnation is this runtime's restart incarnation. A supervisor
	// that restarts a crashed space passes a value it increments per
	// restart; the runtime stamps it into every reply it serves, and
	// clients fence on it (ErrOriginRestarted) instead of silently
	// consuming resurrected addresses. Zero (the default) stamps
	// nothing and keeps every frame byte-identical to older builds.
	Incarnation uint32
}

func (o *Options) fill() error {
	if o.ID == 0 {
		return errors.New("core: runtime ID must be nonzero")
	}
	if o.ID&swizzle.ProvisionalAreaFlag != 0 {
		return fmt.Errorf("core: runtime ID %#x uses the reserved top bit", o.ID)
	}
	if o.Node == nil {
		return errors.New("core: transport node required")
	}
	if o.Registry == nil {
		return errors.New("core: type registry required")
	}
	if o.Policy == 0 {
		o.Policy = PolicySmart
	}
	if o.ClosureSize == 0 {
		o.ClosureSize = 8192
	}
	if o.ClosureSize < 0 {
		o.ClosureSize = 0
	}
	if o.AllocPolicy == 0 {
		o.AllocPolicy = swizzle.PolicyPerOrigin
	}
	if o.Traversal == 0 {
		o.Traversal = TraverseBFS
	}
	if o.Coherence == 0 {
		o.Coherence = CoherencePiggyback
	}
	if o.StreamChunkBytes == 0 {
		o.StreamChunkBytes = defaultStreamChunkBytes
	}
	if o.RetryBudget > 0 && o.MaxRetries == 0 {
		o.MaxRetries = defaultMaxRetries
	}
	if o.MaxRetries > 255 {
		o.MaxRetries = 255
	}
	return nil
}

// defaultMaxRetries is the default attempt cap beyond the first when
// Options.RetryBudget enables transparent retries.
const defaultMaxRetries = 6

// defaultStreamChunkBytes is the default streaming threshold and chunk
// size (Options.StreamChunkBytes).
const defaultStreamChunkBytes = 1 << 20

// Stats is a snapshot of one runtime's counters.
type Stats struct {
	// CallsSent and CallsServed count RPC requests issued and handled.
	CallsSent, CallsServed uint64
	// FetchesSent counts data-request messages issued: the paper's
	// "number of callbacks" (Figure 5).
	FetchesSent uint64
	// FetchesServed counts data requests answered.
	FetchesServed uint64
	// Faults counts access violations delivered by the simulated MMU.
	Faults uint64
	// ItemsInstalled and BytesInstalled count objects cached locally via
	// the fetch/transfer path, where wire bytes equal body bytes. Data
	// re-installed through revalidation is counted by the CohRevalidate
	// family instead, so the two byte columns sum without double counting.
	ItemsInstalled, BytesInstalled uint64
	// DirtyItemsSent counts modified objects shipped on control transfer.
	DirtyItemsSent uint64
	// WriteBackMsgs counts write-back messages sent.
	WriteBackMsgs uint64
	// AllocBatches counts batched remote allocation flushes.
	AllocBatches uint64
	// CohItemsShipped counts coherency-path items actually transmitted
	// (full bodies plus deltas), after delta-shipping elisions.
	CohItemsShipped uint64
	// CohDeltaItems counts the subset of CohItemsShipped sent as
	// byte-range deltas rather than full bodies.
	CohDeltaItems uint64
	// CohItemsSkipped counts coherency-path items elided entirely because
	// the receiving space already held the current version.
	CohItemsSkipped uint64
	// CohItemBytes sums the encoded payload bytes of transmitted
	// coherency-path items (delta items contribute their delta size).
	// With DisableDeltaShip it sums full bodies, making the two modes
	// directly comparable.
	CohItemBytes uint64
	// CohRevalidateMsgs counts hashed FETCH messages (wire.FetchHashed):
	// batched revalidation requests sent (client side) plus requests
	// answered (server side). FetchesSent and FetchesServed leave them out.
	CohRevalidateMsgs uint64
	// CohRevalidateHits counts stale cached data promoted by a zero-byte
	// "still current" token — pages reused across sessions without
	// re-shipping their bytes.
	CohRevalidateHits uint64
	// CohRevalidateMisses counts stale cached data whose revalidation
	// came back as a full body.
	CohRevalidateMisses uint64
	// CohRevalidateBytes sums the item-body bytes received on the
	// revalidation path (tokens contribute zero) — directly comparable to
	// CohItemBytes.
	CohRevalidateBytes uint64
	// PfIssued counts speculative FETCH messages issued by the
	// prefetcher. FetchesSent counts demand and speculative fetches alike,
	// so FetchesSent - PfIssued is the number of fetch round trips the
	// application actually blocked on.
	PfIssued uint64
	// PfCoalesced counts demand faults that found their page's fetch
	// already in flight and joined the pending reply instead of
	// re-requesting (prefetch overlap plus concurrent-fault dedup).
	PfCoalesced uint64
	// PfBytes sums the body bytes installed from speculative fetch
	// replies (a subset of BytesInstalled).
	PfBytes uint64
	// EncCacheHits and EncCacheMisses are always zero: the origin-side
	// encode cache they counted was removed (DESIGN.md §8, "A fault that
	// hashes nothing"). The fields remain because benchmark/ reads them.
	EncCacheHits, EncCacheMisses uint64
	// Retries counts exchange attempts re-issued after a transient
	// failure (Options.RetryBudget). RetrySuccesses counts exchanges
	// that completed after at least one retry; RetriesExhausted counts
	// exchanges that failed with their budget or attempt cap spent.
	Retries, RetrySuccesses, RetriesExhausted uint64
	// StaleReplyDrops counts replies that arrived for an exchange
	// attempt its waiter had already abandoned (timed out or retried):
	// the dispatcher positively discards them and releases any pooled
	// frame buffer they carry.
	StaleReplyDrops uint64
	// DedupReplays counts retried requests this space answered with the
	// reply its admission table kept instead of re-executing; DedupSwallowed
	// counts retried requests absorbed because the first attempt was
	// still executing (the eventual reply goes to the newest attempt).
	DedupReplays, DedupSwallowed uint64
	// FenceTrips counts replies rejected because the origin's restart
	// incarnation changed mid-relationship (ErrOriginRestarted).
	FenceTrips uint64
}

// Runtime is one address space's Smart RPC runtime system.
type Runtime struct {
	id          uint32
	node        transport.Node
	reg         *types.Registry
	res         *types.Resolver // per-profile Lookup+Layout cache
	space       *vmem.Space
	table       *swizzle.Table
	policy      Policy
	closure     int
	traversal   Traversal
	coherence   Coherence
	noDeltaShip bool
	noWarmCache bool
	concurrent  bool
	callTimeout time.Duration
	checkInv    bool
	streamChunk int
	retryBudget time.Duration
	maxRetries  int
	incarnation uint32

	// admission recognizes duplicate and retried requests before they
	// run (admission.go): exact duplicates are dropped, and retried
	// non-idempotent exchanges replay their reply instead of re-executing.
	admission admissionTable

	// health is the per-origin incarnation fence against restarted
	// origins (health.go).
	health healthState

	// skipLocalInvalidate, when set, makes EndSession skip the local
	// demote/invalidate of this space's own cache after write-back. It
	// exists solely so tests can seed a coherency violation (a stale read
	// in the next session) and prove the history checker catches it;
	// nothing in the runtime ever sets it.
	skipLocalInvalidate bool

	// hints maps a type to the pointer fields, by index, its closure
	// expansion follows (SetClosureHint); copy-on-write under hintMu, so a
	// serve loads it once and reads it without a lock. nil: no hints.
	hintMu sync.Mutex
	hints  atomic.Pointer[map[types.ID][]bool]

	procsMu sync.RWMutex
	procs   map[string]Handler

	seq atomic.Uint64
	// pending maps in-flight request sequence numbers to the exchanges
	// awaiting their reply frames (exchange.go).
	pending *pendingTable

	// installMu serializes cache installs (installItems). Installs run
	// only on threads of control, so two batches meet only under a
	// multi-origin fault's fan-out or Options.Concurrent application
	// threads; their closures may share pages, and the
	// page-protection discipline (every entry resident before protection
	// is released) is checked and acted on per batch.
	installMu sync.Mutex
	// installTouched is installBatch's page scratch, reused across batches
	// under installMu.
	installTouched []pageTouch
	// offerScratch is offer's working set, reused under installMu.
	offerScratch offerScratch

	// serveMu orders server-side heap access now that requests are served
	// concurrently off the receive loop: fetch serves encode heap objects
	// under the read lock, write-back/alloc/invalidate serves mutate state
	// under the write lock. The protocol's single thread of
	// control makes contention impossible in a healthy session; the lock
	// matters when a chaos transport delays a write-back into a window
	// where another space's fetch is being served.
	serveMu sync.RWMutex

	// inflight is the in-flight fetch registry (fetch.go): one entry per
	// (cache page, origin) pair whose FETCH exchange is outstanding or
	// has frames parked. A demand fault on a registered page joins it
	// instead of re-requesting. parked is the reply frames background
	// receivers handed over, in arrival order, for a thread of control to
	// install (InstallParked). joined (on inflightMu) is broadcast at every
	// park and retirement: joiners wait on it.
	inflightMu sync.Mutex
	inflight   map[fetchKey]*inflightFetch
	parked     []parkedFrame
	joined     sync.Cond
	// receivers tracks the background goroutines that run speculative
	// exchanges and receive streamed tails (receive); Close reaps them.
	receivers sync.WaitGroup

	// pf is the speculative prefetcher state; nil unless Options.Prefetch.
	pf *prefetcher

	// serve is the bounded worker pool serving non-Call requests off the
	// receive loop, one stripe per worker; messages are striped by sender
	// so per-(from, session) request order is preserved.
	serve [serveWorkers]serveStripe

	// Call servers (callServer) run CALL handlers. idleCalls holds the
	// hand-off channels of the parked ones, last parked on top; callWG
	// counts parked servers, which the dispatcher waits for at shutdown
	// once callsClosed stops further parking. callServers counts the
	// servers ever started.
	callMu      sync.Mutex
	idleCalls   []chan wire.Message
	callsClosed bool
	callWG      sync.WaitGroup
	callServers atomic.Uint64

	sessMu sync.Mutex
	sess   uint64
	ground bool
	parts  map[uint32]bool

	allocMu   sync.Mutex
	batch     map[uint32]*originBatch // origin → pending allocs/frees
	provCount uint32
	// provMap remembers every provisional → real rebinding performed by
	// flushAllocBatches. The smart/eager paths read rebound identities
	// out of the data allocation table, but a lazy-mode Value captured
	// from ExtendedMalloc carries the provisional long pointer by value,
	// so resolveLP must be able to translate it long after the flush —
	// including in later sessions, since the allocation itself persists.
	// The map is published copy-on-write: resolveLP sits on the argument
	// and dereference hot paths and loads it without taking allocMu;
	// flushAllocBatches builds the successor map under allocMu (one copy
	// per batch, not per allocation) and stores it here.
	provMap atomic.Pointer[map[wire.LongPtr]wire.LongPtr]

	// sessionModified tracks locally owned data modified by other spaces,
	// keyed by the session that modified it. The paper's protocol keeps
	// the modified data set circulating with the thread of control until
	// the session ends ("the modified data set is passed among the
	// address spaces with the transition of thread activation"), so the
	// origin must keep re-sending these with every outgoing transfer even
	// after applying them — otherwise a space that cached the datum
	// before the modification would read a stale copy. Keying by session
	// lets an origin serving several concurrent sessions drop one
	// session's set at its end without disturbing the others'. Arriving
	// batches append to a set; circulating sorts and compacts it.
	modMu           sync.Mutex
	sessionModified map[uint64][]wire.LongPtr
	modScratch      []wire.LongPtr // reusable snapshot buffer for circulating

	// coh is the delta-shipping ship state (cohstate.go).
	coh cohState

	tracer atomic.Pointer[tracerBox]

	stats struct {
		callsSent, callsServed         atomic.Uint64
		fetchesSent, fetchesServed     atomic.Uint64
		itemsInstalled, bytesInstalled atomic.Uint64
		dirtyItemsSent, writeBackMsgs  atomic.Uint64
		allocBatches                   atomic.Uint64
		cohItemsShipped, cohDeltaItems atomic.Uint64
		cohItemsSkipped, cohItemBytes  atomic.Uint64

		cohRevalidateMsgs, cohRevalidateHits    atomic.Uint64
		cohRevalidateMisses, cohRevalidateBytes atomic.Uint64

		pfIssued, pfCoalesced atomic.Uint64
		pfBytes               atomic.Uint64

		retries, retrySuccesses, retriesExhausted atomic.Uint64
		staleReplyDrops                           atomic.Uint64
		dedupReplays, dedupSwallowed              atomic.Uint64
		fenceTrips                                atomic.Uint64
	}

	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// originBatch accumulates deferred allocation work for one origin space.
type originBatch struct {
	allocs []provAlloc
	frees  []wire.LongPtr
}

type provAlloc struct {
	lp wire.LongPtr // provisional long pointer
}

// New creates and starts a runtime. Callers must Close it.
func New(opts Options) (*Runtime, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	space, err := vmem.NewSpace(vmem.Config{
		PageSize:   opts.PageSize,
		Profile:    opts.Profile,
		Concurrent: opts.Concurrent,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		id:              opts.ID,
		node:            opts.Node,
		reg:             opts.Registry,
		res:             opts.Registry.ResolverFor(space.Profile()),
		space:           space,
		table:           swizzle.New(space, opts.Registry, opts.ID, opts.AllocPolicy),
		policy:          opts.Policy,
		closure:         opts.ClosureSize,
		traversal:       opts.Traversal,
		coherence:       opts.Coherence,
		noDeltaShip:     opts.DisableDeltaShip,
		noWarmCache:     opts.DisableWarmCache,
		concurrent:      opts.Concurrent,
		callTimeout:     opts.CallTimeout,
		checkInv:        opts.CheckInvariants,
		streamChunk:     opts.StreamChunkBytes,
		retryBudget:     opts.RetryBudget,
		maxRetries:      opts.MaxRetries,
		incarnation:     opts.Incarnation,
		procs:           make(map[string]Handler),
		pending:         newPendingTable(),
		inflight:        make(map[fetchKey]*inflightFetch),
		parts:           make(map[uint32]bool),
		batch:           make(map[uint32]*originBatch),
		sessionModified: make(map[uint64][]wire.LongPtr),
		stop:            make(chan struct{}),
		done:            make(chan struct{}),
	}
	rt.joined.L = &rt.inflightMu
	empty := make(map[wire.LongPtr]wire.LongPtr)
	rt.provMap.Store(&empty)
	if opts.Prefetch {
		rt.pf = newPrefetcher(opts.SyncPrefetch)
	}
	space.SetHandler(rt.onFault)
	for i := range rt.serve {
		rt.serve[i] = newServeStripe()
		go rt.serveWorker(&rt.serve[i])
	}
	go rt.loop()
	return rt, nil
}

// SetClosureHint restricts the eager closure to follow only the named
// pointer fields of type ty when this runtime serves fetches. Passing an
// empty list stops traversal at that type entirely; unknown field names
// are rejected.
func (rt *Runtime) SetClosureHint(ty types.ID, fields []string) error {
	desc, err := rt.reg.Lookup(ty)
	if err != nil {
		return err
	}
	follow := make([]bool, len(desc.Fields))
	for _, f := range fields {
		i := desc.FieldIndex(f)
		if i < 0 || desc.Fields[i].Kind != types.Ptr {
			return fmt.Errorf("core: closure hint for %s: %q is not a pointer field", desc.Name, f)
		}
		follow[i] = true
	}
	rt.hintMu.Lock()
	defer rt.hintMu.Unlock()
	next := make(map[types.ID][]bool)
	if old := rt.hints.Load(); old != nil {
		maps.Copy(next, *old)
	}
	next[ty] = follow
	rt.hints.Store(&next)
	return nil
}

// ID returns the runtime's address-space identifier.
func (rt *Runtime) ID() uint32 { return rt.id }

// Space exposes the simulated address space (examples and tests build
// data structures directly in it).
func (rt *Runtime) Space() *vmem.Space { return rt.space }

// Table exposes the data allocation table for inspection.
func (rt *Runtime) Table() *swizzle.Table { return rt.table }

// Registry returns the type database.
func (rt *Runtime) Registry() *types.Registry { return rt.reg }

// Policy returns the configured transfer policy.
func (rt *Runtime) Policy() Policy { return rt.policy }

// ClosureSize returns the eager transfer budget in bytes.
func (rt *Runtime) ClosureSize() int { return rt.closure }

// Register installs a remote procedure under name.
func (rt *Runtime) Register(name string, h Handler) error {
	if name == "" || h == nil {
		return errors.New("core: procedure needs a name and a handler")
	}
	rt.procsMu.Lock()
	defer rt.procsMu.Unlock()
	if _, ok := rt.procs[name]; ok {
		return fmt.Errorf("core: procedure %q already registered", name)
	}
	rt.procs[name] = h
	return nil
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		CallsSent:      rt.stats.callsSent.Load(),
		CallsServed:    rt.stats.callsServed.Load(),
		FetchesSent:    rt.stats.fetchesSent.Load(),
		FetchesServed:  rt.stats.fetchesServed.Load(),
		Faults:         rt.space.Faults(),
		ItemsInstalled: rt.stats.itemsInstalled.Load(),
		BytesInstalled: rt.stats.bytesInstalled.Load(),
		DirtyItemsSent: rt.stats.dirtyItemsSent.Load(),
		WriteBackMsgs:  rt.stats.writeBackMsgs.Load(),
		AllocBatches:   rt.stats.allocBatches.Load(),

		CohItemsShipped: rt.stats.cohItemsShipped.Load(),
		CohDeltaItems:   rt.stats.cohDeltaItems.Load(),
		CohItemsSkipped: rt.stats.cohItemsSkipped.Load(),
		CohItemBytes:    rt.stats.cohItemBytes.Load(),

		CohRevalidateMsgs:   rt.stats.cohRevalidateMsgs.Load(),
		CohRevalidateHits:   rt.stats.cohRevalidateHits.Load(),
		CohRevalidateMisses: rt.stats.cohRevalidateMisses.Load(),
		CohRevalidateBytes:  rt.stats.cohRevalidateBytes.Load(),

		PfIssued:    rt.stats.pfIssued.Load(),
		PfCoalesced: rt.stats.pfCoalesced.Load(),
		PfBytes:     rt.stats.pfBytes.Load(),

		Retries:          rt.stats.retries.Load(),
		RetrySuccesses:   rt.stats.retrySuccesses.Load(),
		RetriesExhausted: rt.stats.retriesExhausted.Load(),
		StaleReplyDrops:  rt.stats.staleReplyDrops.Load(),
		DedupReplays:     rt.stats.dedupReplays.Load(),
		DedupSwallowed:   rt.stats.dedupSwallowed.Load(),
		FenceTrips:       rt.stats.fenceTrips.Load(),
	}
	return s
}

// Close shuts the runtime down and waits for its dispatcher and idle call
// servers to exit. A handler or a serve still running is not waited for:
// its server exits after the reply, and its serve worker once the serve
// returns. Serve workers are not waited for at all; each exits on stop,
// dropping the requests still queued for it.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() {
		close(rt.stop)
		_ = rt.node.Close()
		<-rt.done
		// Every waiter is waking on stop; release the frames still queued
		// for them, reap the background receivers, then release what they
		// parked. The serve workers exit on stop without being waited for,
		// and the requests queued for them are dropped, their frames
		// released.
		rt.pending.drain()
		rt.receivers.Wait()
		rt.dropParked()
		for i := range rt.serve {
			rt.serve[i].drop()
		}
	})
	return nil
}

// serveWorkers is the size of the bounded pool serving non-Call requests,
// and serveQueueLimit the most requests one worker's queue holds.
// Requests stripe by sender (from % serveWorkers), so one sender's
// requests execute in arrival order while distinct senders proceed in
// parallel — N clients fetching from one server no longer head-of-line
// block behind one closure build.
//
// Sizing: a stripe rarely holds more than one request. The fetch
// pipeline can put several concurrent requests on one edge — a
// multi-origin demand fault fans out one FETCH per origin group, and the
// prefetcher adds at most prefetchDepth speculative exchanges per origin
// — but every requester then blocks awaiting its reply; the most any
// stripe was seen to hold, across the core and bench test suites and 80
// chaos seeds with and without concurrent workloads, is one. So a queue
// starts small and grows only as requests pile up (8×256 preallocated
// slots took two thirds of a one-node session's live heap). The limit
// bounds what a duplicating, replaying or flooding transport can pile
// up: four admission tables' worth of requests per stripe, which a
// well-behaved peer does not come near. When a queue is full, the
// receive loop blocks (backpressure, with a shutdown escape) rather than
// growing without bound — deliberately: dropping would strand the sender
// until its call timeout, and NACKing would surface spurious errors on
// demand faults. The accepted cost is that a saturated stripe stalls the
// dispatcher, and with it reply delivery to local waiters. No stripe
// worker waits on a reply: serveInvalidate drops parked fetch frames
// instead of waiting for them.
const (
	serveWorkers    = 8
	serveQueueLimit = 4 * admissionEntries
)

// serveStripe is one serve worker's queue, a ring of requests oldest
// first. Only the dispatcher puts and only the stripe's worker takes.
type serveStripe struct {
	mu   sync.Mutex
	ring []wire.Message // grown by doubling; its length is a power of two
	head int            // ring index of the oldest request
	n    int            // requests queued
	// wake holds a token once a put finds the queue empty, and room once
	// the worker takes from a full one.
	wake, room chan struct{}
}

func newServeStripe() serveStripe {
	return serveStripe{wake: make(chan struct{}, 1), room: make(chan struct{}, 1)}
}

// put queues m for the stripe's worker. While the queue is full it waits
// for the worker to take a request, and drops m once stop closes.
func (s *serveStripe) put(m wire.Message, stop <-chan struct{}) {
	s.mu.Lock()
	for s.n == serveQueueLimit {
		s.mu.Unlock()
		select {
		case <-s.room:
		case <-stop:
			m.ReleaseFrame()
			return
		}
		s.mu.Lock()
	}
	if s.n == len(s.ring) {
		grown := make([]wire.Message, max(8, 2*len(s.ring)))
		k := copy(grown, s.ring[s.head:])
		copy(grown[k:], s.ring[:s.head])
		s.ring, s.head = grown, 0
	}
	s.ring[(s.head+s.n)&(len(s.ring)-1)] = m
	s.n++
	first := s.n == 1
	s.mu.Unlock()
	if first {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// take removes the oldest request; ok is false if the queue is empty.
func (s *serveStripe) take() (m wire.Message, ok bool) {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return m, false
	}
	full := s.n == serveQueueLimit
	m, s.ring[s.head] = s.ring[s.head], wire.Message{}
	s.head = (s.head + 1) & (len(s.ring) - 1)
	s.n--
	s.mu.Unlock()
	if full {
		select {
		case s.room <- struct{}{}:
		default:
		}
	}
	return m, true
}

// drop empties the queue, releasing the requests' frames.
func (s *serveStripe) drop() {
	for {
		m, ok := s.take()
		if !ok {
			return
		}
		m.ReleaseFrame()
	}
}

// serveWorker serves one stripe of the serve pool until the runtime
// stops; requests still queued then are dropped.
func (rt *Runtime) serveWorker(s *serveStripe) {
	for {
		select {
		case <-rt.stop:
			return
		default:
		}
		m, ok := s.take()
		if !ok {
			select {
			case <-s.wake:
			case <-rt.stop:
				return
			}
			continue
		}
		switch m.Kind {
		case wire.KindFetch:
			rt.serveFetch(m)
		case wire.KindWriteBack:
			rt.serveWriteBack(m)
		case wire.KindInvalidate:
			rt.serveInvalidate(m)
		case wire.KindAllocBatch:
			rt.serveAllocBatch(m)
		}
	}
}

// enqueueServe hands a request to its sender's stripe, blocking (with a
// shutdown escape) while the stripe is full.
func (rt *Runtime) enqueueServe(m wire.Message) {
	rt.serve[m.From%serveWorkers].put(m, rt.stop)
}

// dispatchCall hands a CALL to the call server that parked last, or
// starts a server when none is idle. It never waits: a parked server's
// hand-off channel has room for the one CALL it is given, and a handler
// blocked in a nested call or a callback keeps its server, so a CALL
// that arrives meanwhile gets another one.
//
// Reuse is the point. A fresh goroutine starts on a small stack, and a
// handler's first fault (onFault → fetch → install) outgrows it, so a
// goroutine per CALL paid a stack copy per session. LIFO hands out the
// server that ran last, whose grown stack the collector is least likely
// to have shrunk.
func (rt *Runtime) dispatchCall(m wire.Message) {
	rt.callMu.Lock()
	if n := len(rt.idleCalls); n > 0 {
		next := rt.idleCalls[n-1]
		rt.idleCalls = rt.idleCalls[:n-1]
		rt.callMu.Unlock()
		next <- m
		return
	}
	rt.callMu.Unlock()
	rt.callServers.Add(1)
	go rt.callServer(m)
}

// callServer serves m, then every CALL the dispatcher hands it, until it
// finds serveWorkers servers already idle or the dispatcher has shut down.
func (rt *Runtime) callServer(m wire.Message) {
	next := make(chan wire.Message, 1)
	for {
		payload, errStr := rt.serveCall(m)
		// Park before the reply leaves: the caller's next CALL is sent
		// only after this reply arrives, so it finds this server idle
		// instead of starting a second one. A CALL handed over meanwhile
		// waits in next for the send to finish.
		parked := rt.parkCallServer(next)
		rt.reply(m, wire.KindReturn, payload, errStr)
		if !parked {
			return
		}
		var ok bool
		m, ok = <-next
		rt.callWG.Done()
		if !ok {
			return
		}
	}
}

// parkCallServer puts a call server's hand-off channel on the idle list,
// unless the list is full or the dispatcher has shut down; it reports
// whether the server parked.
func (rt *Runtime) parkCallServer(next chan wire.Message) bool {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	if rt.callsClosed || len(rt.idleCalls) >= serveWorkers {
		return false
	}
	rt.idleCalls = append(rt.idleCalls, next)
	rt.callWG.Add(1)
	return true
}

// stopCallServers releases every parked call server and waits for them
// to exit. Servers running a handler are not waited for; they exit after
// their reply, since no server parks once callsClosed is set.
func (rt *Runtime) stopCallServers() {
	rt.callMu.Lock()
	rt.callsClosed = true
	idle := rt.idleCalls
	rt.idleCalls = nil
	rt.callMu.Unlock()
	for _, next := range idle {
		close(next)
	}
	rt.callWG.Wait()
}

// loop is the dispatcher: it routes replies to waiting requesters and
// dispatches requests to their servers. A CALL goes to a reused call
// server (dispatchCall), one per running handler, since handlers may
// block in nested calls or callbacks; the bookkeeping servers run on the
// bounded serve pool, striped by sender, so a slow closure build for one
// client never head-of-line blocks the loop or the other clients. When
// the loop exits, the idle call servers exit with it; the serve workers
// exit on stop.
// Every request passes the admission table (admission.go) first;
// duplicated reply frames are harmless — the first one consumes the
// pending entry and the rest find no requester.
func (rt *Runtime) loop() {
	defer func() {
		rt.stopCallServers()
		close(rt.done)
	}()
	for {
		m, err := rt.node.Recv()
		if err != nil {
			return
		}
		if !m.SumOK() {
			// A frame corrupted in flight. For a reply, surface the
			// corruption to the waiting requester as an ordinary remote
			// error (the payload cannot be trusted, so none is kept).
			// For a request, answer with an error so the sender is not
			// left to its deadline — its frame's identity fields are
			// covered by the checksum too, but a reply keyed on a
			// corrupted Seq simply finds no requester and is dropped.
			rt.trace(Event{Kind: EvChecksumReject, Target: m.From})
			if m.Kind.IsReply() {
				m.Err = checksumRejectErr
				m.Payload = nil
			} else {
				// Raw reply: the frame's identity fields are untrustworthy,
				// so it must not touch the admission table either.
				m.ReleaseFrame()
				rt.replyRaw(m.From, m.Session, m.Seq, m.Kind.ReplyKind(), nil, checksumRejectErr)
				continue
			}
		}
		if m.Kind.IsReply() {
			// A chunk that is not the last of its stream leaves the exchange
			// registered for the rest; every other reply frame — a
			// monolithic reply, a final chunk, an error, a corrupt frame
			// whose payload cannot name an ordinal — closes it.
			final := m.Kind != wire.KindFetchChunk || m.Err != "" || wire.ChunkIsFinal(m.Payload)
			if !rt.pending.deliver(m, final) {
				// Stale reply: its waiter timed out or retried and abandoned
				// this attempt's sequence number. Positively discard it —
				// releasing any pooled frame buffer it carries — instead of
				// leaving the frame to the garbage collector.
				m.ReleaseFrame()
				rt.stats.staleReplyDrops.Add(1)
			}
			continue
		}
		// A request the admission table keeps from its server is over here:
		// its pooled frame (a FETCH's) goes back.
		switch v, r := rt.admission.admit(m); v {
		case admitDrop:
			m.ReleaseFrame()
			continue
		case admitSwallow:
			m.ReleaseFrame()
			rt.stats.dedupSwallowed.Add(1)
			continue
		case admitReplay:
			m.ReleaseFrame()
			rt.stats.dedupReplays.Add(1)
			rt.trace(Event{Kind: EvReplayedReply, Target: m.From})
			rt.replyRaw(m.From, m.Session, m.Seq, r.kind, r.payload, r.errStr)
			continue
		}
		switch m.Kind {
		case wire.KindCall:
			rt.dispatchCall(m)
		case wire.KindFetch, wire.KindWriteBack, wire.KindInvalidate, wire.KindAllocBatch:
			rt.enqueueServe(m)
		}
	}
}

// reply sends a response correlated to request m. For replayable
// (non-idempotent) exchanges it also completes the admission entry the
// dispatcher opened: the reply bytes are retained for replay to later
// retries, and the response is addressed to the newest attempt's
// sequence number in case a retry was swallowed while the request
// executed. reply takes ownership of payload — the admission table keeps
// the slice until the session ends — so serve paths pass a buffer
// encoded for this reply and never write it again.
func (rt *Runtime) reply(m wire.Message, kind wire.Kind, payload []byte, errStr string) {
	seq := m.Seq
	if replayable(m.Kind) {
		if last, ok := rt.admission.complete(m, cachedReply{kind, payload, errStr}); ok {
			seq = last
		}
	}
	rt.replyRaw(m.From, m.Session, seq, kind, payload, errStr)
}

// replyRaw sends a response frame with no admission-table interaction.
func (rt *Runtime) replyRaw(to uint32, sess, seq uint64, kind wire.Kind, payload []byte, errStr string) {
	if payload == nil {
		payload = []byte{}
	}
	resp := wire.Message{
		Kind:    kind,
		Session: sess,
		Seq:     seq,
		To:      to,
		Err:     errStr,
		Payload: payload,
		Inc:     rt.incarnation,
	}
	resp.Seal()
	_ = rt.node.Send(resp)
}

// CacheStats is a snapshot of the cache region's working set (§3.4
// discusses the "working set in distributed computation" that the RPC
// session delimits).
type CacheStats struct {
	// Entries is the number of data allocation table rows.
	Entries int
	// ResidentEntries counts rows whose data has been installed.
	ResidentEntries int
	// ResidentBytes sums the local sizes of resident rows.
	ResidentBytes int
	// DirtyPages counts cache pages holding unshipped modifications.
	DirtyPages int
}

// CacheStats snapshots the current working set of cached remote data.
func (rt *Runtime) CacheStats() CacheStats {
	var cs CacheStats
	for _, e := range rt.table.Entries() {
		cs.Entries++
		if e.Resident {
			cs.ResidentEntries++
			cs.ResidentBytes += int(e.Size)
		}
	}
	cs.DirtyPages = len(rt.space.DirtyPages(nil))
	return cs
}
