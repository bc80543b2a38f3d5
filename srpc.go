package srpc

import (
	"smartrpc/internal/arch"
	"smartrpc/internal/core"
	"smartrpc/internal/nameserver"
	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
)

// Core runtime types.
type (
	// Runtime is one address space's Smart RPC runtime system.
	Runtime = core.Runtime
	// Options configures a Runtime.
	Options = core.Options
	// Value is one RPC argument or result.
	Value = core.Value
	// Ref is a dereferenced pointer with field accessors.
	Ref = core.Ref
	// Ctx carries session context into handlers (callbacks, nested RPC).
	Ctx = core.Ctx
	// Handler is a remote procedure body.
	Handler = core.Handler
	// Policy selects the pointer-transfer strategy.
	Policy = core.Policy
	// Traversal selects the closure traversal order.
	Traversal = core.Traversal
	// Coherence selects the coherency protocol variant.
	Coherence = core.Coherence
	// Stats is a snapshot of a runtime's counters.
	Stats = core.Stats
	// CacheStats is a snapshot of the cached working set (§3.4).
	CacheStats = core.CacheStats
)

// Policies, traversals and coherence protocols.
const (
	// PolicySmart is the paper's proposed method.
	PolicySmart = core.PolicySmart
	// PolicyEager is the fully eager baseline (whole closure up front).
	PolicyEager = core.PolicyEager
	// PolicyLazy is the fully lazy baseline (callback per dereference).
	PolicyLazy = core.PolicyLazy

	// TraverseBFS is the paper's breadth-first closure traversal.
	TraverseBFS = core.TraverseBFS
	// TraverseDFS is the depth-first ablation.
	TraverseDFS = core.TraverseDFS

	// CoherencePiggyback ships dirty data with the thread of control.
	CoherencePiggyback = core.CoherencePiggyback
	// CoherenceWriteBack sends dirty data home on each transfer.
	CoherenceWriteBack = core.CoherenceWriteBack
)

// Sentinel errors re-exported for matching with errors.Is.
var (
	// ErrNoSession is returned by Call outside an RPC session.
	ErrNoSession = core.ErrNoSession
	// ErrSessionBusy reports a conflicting concurrent session.
	ErrSessionBusy = core.ErrSessionBusy
	// ErrUnknownProc reports a call to an unregistered procedure.
	ErrUnknownProc = core.ErrUnknownProc
	// ErrDeadline reports a remote round trip that exceeded
	// Options.CallTimeout (a crashed or partitioned peer).
	ErrDeadline = core.ErrDeadline
	// ErrInvariant reports a coherency invariant violation detected by
	// the runtime's self-checks (enabled with Options.CheckInvariants).
	ErrInvariant = core.ErrInvariant
	// ErrOriginRestarted reports an origin whose reply carried a new
	// restart incarnation mid-relationship: every address imported from
	// it refers to a heap that no longer exists. The session must be
	// abandoned and re-imported; retrying cannot help.
	ErrOriginRestarted = core.ErrOriginRestarted
	// ErrIndexRange reports a Ref accessor called with an element index
	// outside its field.
	ErrIndexRange = core.ErrIndexRange
)

// New creates and starts a runtime attached to a transport node.
func New(opts Options) (*Runtime, error) { return core.New(opts) }

// Value constructors.
var (
	// Int64Value builds a signed integer argument.
	Int64Value = core.Int64Value
	// Uint64Value builds an unsigned integer argument.
	Uint64Value = core.Uint64Value
	// Float64Value builds a double-precision argument.
	Float64Value = core.Float64Value
	// BoolValue builds a boolean argument.
	BoolValue = core.BoolValue
	// NullPtr builds a null pointer of the given element type.
	NullPtr = core.NullPtr
)

// Type database (schema) surface.
type (
	// Registry is the type database shared by all runtimes.
	Registry = types.Registry
	// TypeDesc describes one structured data type.
	TypeDesc = types.Desc
	// Field is one member of a TypeDesc.
	Field = types.Field
	// Kind is a field's element kind.
	Kind = types.Kind
	// TypeID identifies a type across the distributed system.
	TypeID = types.ID
)

// Field kinds.
const (
	KindInt8    = types.Int8
	KindUint8   = types.Uint8
	KindInt16   = types.Int16
	KindUint16  = types.Uint16
	KindInt32   = types.Int32
	KindUint32  = types.Uint32
	KindInt64   = types.Int64
	KindUint64  = types.Uint64
	KindFloat32 = types.Float32
	KindFloat64 = types.Float64
	KindBool    = types.Bool
	KindPtr     = types.Ptr
)

// NewRegistry creates an empty type database.
func NewRegistry() *Registry { return types.NewRegistry() }

// Transport surface.
type (
	// Node is one space's attachment to a network.
	Node = transport.Node
	// LocalNetwork is the in-process message switch with deterministic
	// cost accounting.
	LocalNetwork = transport.Network
	// TCPNode is a node communicating over real TCP connections.
	TCPNode = transport.TCPNode
	// NetModel is the linear network cost model used by LocalNetwork.
	NetModel = netsim.Model
	// NetClock accumulates modeled network time.
	NetClock = netsim.Clock
	// NetStats counts messages and bytes.
	NetStats = netsim.Stats
)

// NewLocalNetwork creates an in-process network charging each message to
// model. Pass a zero NetModel for a free (untimed) network.
func NewLocalNetwork(model NetModel) (*LocalNetwork, error) {
	return transport.NewNetwork(model, nil, nil)
}

// NewLocalNetworkWithInstruments creates an in-process network with an
// externally owned clock and counters (both may be nil).
func NewLocalNetworkWithInstruments(model NetModel, clock *NetClock, stats *NetStats) (*LocalNetwork, error) {
	return transport.NewNetwork(model, clock, stats)
}

// ListenTCP starts a TCP transport node for space id on addr; book maps
// peer space IDs to their listen addresses.
func ListenTCP(id uint32, addr string, book map[uint32]string) (*TCPNode, error) {
	return transport.ListenTCP(id, addr, book)
}

// Ethernet10SPARC is the network cost model calibrated to the paper's
// testbed (SPARCstations on 10 Mbps Ethernet).
func Ethernet10SPARC() NetModel { return netsim.Ethernet10SPARC() }

// Architecture profiles for heterogeneous deployments.
type ArchProfile = arch.Profile

// Profiles.
var (
	// SPARC32 is a 32-bit big-endian machine (the paper's testbed).
	SPARC32 = arch.SPARC32
	// Alpha64 is a 64-bit little-endian machine.
	Alpha64 = arch.Alpha64
	// M68K32 is a 32-bit big-endian machine with 2-byte packing.
	M68K32 = arch.M68K32
)

// Allocation policies for the cache page grouping heuristic.
const (
	// AllocPerOrigin groups each origin space's data on its own pages
	// (the paper's heuristic).
	AllocPerOrigin = swizzle.PolicyPerOrigin
	// AllocMixed packs all origins together (worst-case ablation).
	AllocMixed = swizzle.PolicyMixed
)

// VAddr is an ordinary pointer within one simulated address space.
type VAddr = vmem.VAddr

// Type name-server surface: the network type database of §3.2 ("a
// database that serves as a network name server"). Independently started
// processes bootstrap their schemas from it instead of compiling in a
// shared registry.
type (
	// TypeServer serves an authoritative registry over the network.
	TypeServer = nameserver.Server
	// TypeClient resolves and publishes types against a TypeServer,
	// caching them in a local registry.
	TypeClient = nameserver.Client
)

// NewTypeServer starts a type database service on node, serving reg.
func NewTypeServer(node Node, reg *Registry) *TypeServer {
	return nameserver.NewServer(node, reg)
}

// NewTypeClient creates a resolver talking to the server space over node;
// resolved types are cached in local.
func NewTypeClient(node Node, server uint32, local *Registry) *TypeClient {
	return nameserver.NewClient(node, server, local)
}

// Tracing surface: structured runtime events (faults, fetches, dirty
// collection, write-backs) for observability. Install with
// Runtime.SetTracer.
type (
	// TraceEvent is one traced runtime occurrence.
	TraceEvent = core.Event
	// TraceEventKind discriminates trace events.
	TraceEventKind = core.EventKind
	// Tracer receives runtime events.
	Tracer = core.Tracer
	// RecordingTracer collects events in memory.
	RecordingTracer = core.RecordingTracer
	// WriterTracer renders one line per event to an io.Writer.
	WriterTracer = core.WriterTracer
)

// Trace event kinds.
const (
	EvSessionBegin   = core.EvSessionBegin
	EvSessionEnd     = core.EvSessionEnd
	EvCallSent       = core.EvCallSent
	EvCallServed     = core.EvCallServed
	EvFault          = core.EvFault
	EvFetchSent      = core.EvFetchSent
	EvFetchServed    = core.EvFetchServed
	EvInstall        = core.EvInstall
	EvDirtyCollected = core.EvDirtyCollected
	EvWriteBackSent  = core.EvWriteBackSent
	EvInvalidateSent = core.EvInvalidateSent
	EvAllocFlush     = core.EvAllocFlush
	EvChecksumReject = core.EvChecksumReject
)

// NewWriterTracer builds a line-per-event tracer writing to w.
var NewWriterTracer = core.NewWriterTracer
