// Package vmem simulates the virtual-memory hardware the paper's runtime
// relies on.
//
// The original system used the SPARC MMU through SunOS primitives: it
// allocated *protected page areas* for remotely referenced data, caught the
// access-violation exception raised by the first touch, fetched the data,
// and then released the protection. Dirty detection for the coherency
// protocol likewise used read-only page protection.
//
// Go programs cannot take over SIGSEGV (the runtime owns signal handling)
// and cannot fabricate pointers past the garbage collector, so this package
// provides the same machinery in software: a 32-bit virtual address space
// made of fixed-size pages with per-page protection, where every load and
// store checks protection and delivers a Fault to a registered handler —
// exactly the control flow of the paper's exception path, with the MMU's
// hardware check replaced by a bounds-and-protection check per access.
//
// The address space is split into two regions: a heap for locally owned
// data and a cache region where protected page areas for remote data are
// carved out. Addresses are plain uint32 values (VAddr); address 0 is the
// null pointer.
//
// # Concurrency model
//
// Page lookup is a flat slice index per region (both regions are
// bump-allocated, so the mapped pages of each region are dense) against an
// atomically published page table, and per-page protection and dirty bits
// are atomics, so the metadata side of every operation is lock-free.
//
// Data copies come in two flavors, selected by Config.Concurrent:
//
//   - Concurrent=false (default): copies take no lock at all. This relies
//     on the paper's single-active-thread property (§3.1, §3.4): within an
//     RPC session exactly one thread of control is active across the whole
//     system, and the control-transfer messages that hand it off establish
//     happens-before edges, so two goroutines never race on page data. The
//     in-memory and TCP transports both deliver messages over channels,
//     which gives exactly that ordering.
//   - Concurrent=true: copies additionally hold an internal mutex, giving
//     word-level atomicity between application goroutines that share one
//     Space outside the RPC protocol (e.g. a multithreaded server probing
//     its own heap while handlers run).
package vmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"smartrpc/internal/arch"
)

// VAddr is an ordinary pointer: an address valid only within one simulated
// address space. Long pointers (package swizzle) extend these across the
// distributed system.
type VAddr uint32

// Null is the null ordinary pointer.
const Null VAddr = 0

// Prot is a page protection level.
type Prot int

// Protection levels. ProtNone pages fault on any access (the paper's
// protected page area before its data arrives); ProtRead pages fault on
// write (dirty detection); ProtReadWrite pages never fault.
const (
	ProtNone Prot = iota + 1
	ProtRead
	ProtReadWrite
)

// String returns a mprotect-style rendering of the protection.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("Prot(%d)", int(p))
	}
}

// FaultKind distinguishes read from write access violations.
type FaultKind int

// Fault kinds.
const (
	FaultRead FaultKind = iota + 1
	FaultWrite
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes one access violation, as delivered to the handler.
type Fault struct {
	// Addr is the faulting address.
	Addr VAddr
	// Page is the faulting page number (Addr / PageSize).
	Page uint32
	// Kind says whether the access was a read or a write.
	Kind FaultKind
}

// Handler resolves a fault, typically by fetching remote data and raising
// the page protection. If it returns an error the faulting access fails
// with that error. A handler that leaves the protection unchanged causes
// the access to fail with ErrFaultUnresolved.
type Handler func(Fault) error

// Region boundaries. The heap starts above page 0 so that small integers
// never alias valid pointers; the cache region occupies the upper half.
const (
	heapBase  VAddr = 0x0001_0000
	cacheBase VAddr = 0x4000_0000
	spaceTop  VAddr = 0xF000_0000
)

// Sentinel errors.
var (
	// ErrNull is returned for any access through the null pointer.
	ErrNull = errors.New("vmem: null pointer access")
	// ErrUnmapped is returned for access to a page that was never allocated.
	ErrUnmapped = errors.New("vmem: unmapped address")
	// ErrNoHandler is returned when a fault occurs and no handler is set.
	ErrNoHandler = errors.New("vmem: access violation with no fault handler")
	// ErrFaultUnresolved is returned when the handler ran but the page is
	// still inaccessible.
	ErrFaultUnresolved = errors.New("vmem: fault handler did not resolve protection")
	// ErrOutOfMemory is returned when a region is exhausted.
	ErrOutOfMemory = errors.New("vmem: out of memory")
	// ErrBadFree is returned for Free of an address that was not returned
	// by Alloc (or was already freed).
	ErrBadFree = errors.New("vmem: bad free")
)

// page is one unit of protection and transfer. data is fixed at creation;
// prot and dirty are atomics so protection checks and dirty bookkeeping
// never take a lock.
type page struct {
	data  []byte
	prot  atomic.Int32
	dirty atomic.Bool // cache page modified since install (coherency protocol)
}

// pageTable is the immutable flat page table: one dense slice per region,
// indexed by page number minus the region's base page number. Growth
// copies the affected slice and publishes a fresh table; *page pointers
// stay stable across growth.
type pageTable struct {
	heap  []*page
	cache []*page
}

// Config parameterizes a Space.
type Config struct {
	// PageSize is the protection grain in bytes; must be a power of two
	// ≥ 64. Defaults to 4096.
	PageSize int
	// Profile is the simulated architecture. Defaults to arch.SPARC32.
	Profile arch.Profile
	// Concurrent makes data copies hold an internal lock so goroutines
	// sharing the Space outside the RPC protocol get word-level atomicity.
	// The default (false) is lock-free and relies on the protocol's
	// single-active-thread property; see the package comment.
	Concurrent bool
}

func (c *Config) fill() error {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PageSize < 64 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("vmem: page size %d must be a power of two >= 64", c.PageSize)
	}
	if c.Profile.Name == "" {
		c.Profile = arch.SPARC32()
	}
	return c.Profile.Validate()
}

// Space is one simulated address space: a page table, a heap for local
// data, a cache region for remote data, and a fault handler.
//
// Metadata operations (protection, dirty bits, fault accounting) are safe
// for concurrent use. Data copies are lock-free unless Config.Concurrent
// is set; see the package comment for when that is sound. The fault
// handler is invoked without any lock held, so it may call back into the
// Space.
type Space struct {
	pageSize   int
	pageShift  uint
	pageMask   uint32
	concurrent bool
	profile    arch.Profile

	heapPN0  uint32 // first heap page number
	cachePN0 uint32 // first cache page number
	topPN    uint32 // first page number past the cache region

	table   atomic.Pointer[pageTable]
	handler atomic.Pointer[Handler]
	faults  atomic.Uint64

	mu        sync.Mutex // guards growth, heap allocator, cacheNext; copies too when concurrent
	heap      allocator
	cacheNext VAddr // bump pointer for cache page allocation
}

// NewSpace creates an empty address space.
func NewSpace(cfg Config) (*Space, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift != cfg.PageSize {
		shift++
	}
	s := &Space{
		pageSize:   cfg.PageSize,
		pageShift:  shift,
		pageMask:   uint32(cfg.PageSize - 1),
		concurrent: cfg.Concurrent,
		profile:    cfg.Profile,
		heapPN0:    uint32(heapBase) >> shift,
		cachePN0:   uint32(cacheBase) >> shift,
		topPN:      uint32(spaceTop) >> shift,
		cacheNext:  cacheBase,
	}
	s.table.Store(&pageTable{})
	s.heap.init(heapBase, cacheBase)
	return s, nil
}

// PageSize returns the protection grain.
func (s *Space) PageSize() int { return s.pageSize }

// Profile returns the simulated architecture.
func (s *Space) Profile() arch.Profile { return s.profile }

// PointerSize returns the in-memory size of an ordinary pointer.
func (s *Space) PointerSize() int { return s.profile.PointerSize }

// SetHandler installs the fault handler.
func (s *Space) SetHandler(h Handler) {
	s.handler.Store(&h)
}

// loadHandler returns the installed handler (nil if none).
func (s *Space) loadHandler() Handler {
	if hp := s.handler.Load(); hp != nil {
		return *hp
	}
	return nil
}

// Faults returns the number of access violations delivered so far.
func (s *Space) Faults() uint64 {
	return s.faults.Load()
}

// PageOf returns the page number containing addr.
func (s *Space) PageOf(addr VAddr) uint32 {
	return uint32(addr) >> s.pageShift
}

// PageBase returns the first address of page pn.
func (s *Space) PageBase(pn uint32) VAddr {
	return VAddr(pn << s.pageShift)
}

// InCache reports whether addr lies in the cache region (i.e. the data is
// a cached copy of remote data rather than locally owned).
func (s *Space) InCache(addr VAddr) bool {
	return addr >= cacheBase && addr < spaceTop
}

// InHeap reports whether addr lies in the local heap region.
func (s *Space) InHeap(addr VAddr) bool {
	return addr >= heapBase && addr < cacheBase
}

// pageAt returns the page with number pn in table t, or nil if unmapped.
func (s *Space) pageAt(t *pageTable, pn uint32) *page {
	if pn >= s.cachePN0 {
		if pn >= s.topPN {
			return nil
		}
		if i := pn - s.cachePN0; i < uint32(len(t.cache)) {
			return t.cache[i]
		}
		return nil
	}
	if pn >= s.heapPN0 {
		if i := pn - s.heapPN0; i < uint32(len(t.heap)) {
			return t.heap[i]
		}
	}
	return nil
}

// lookup loads the current table and returns the page for pn (nil if
// unmapped).
func (s *Space) lookup(pn uint32) *page {
	return s.pageAt(s.table.Load(), pn)
}

// allows reports whether protection p admits an access of the given kind.
func allows(p Prot, kind FaultKind) bool {
	return p == ProtReadWrite || (kind == FaultRead && p == ProtRead)
}

// --- allocation ---

// Alloc reserves size bytes (aligned to align, a power of two) in the local
// heap. Heap pages are mapped read-write; locally owned data never faults.
func (s *Space) Alloc(size, align int) (VAddr, error) {
	if size <= 0 {
		return Null, fmt.Errorf("vmem: alloc size %d", size)
	}
	if align <= 0 {
		align = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, err := s.heap.alloc(size, align)
	if err != nil {
		return Null, err
	}
	s.mapRangeLocked(addr, size, ProtReadWrite, false)
	return addr, nil
}

// Free releases a heap allocation made by Alloc.
func (s *Space) Free(addr VAddr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.free(addr)
}

// AllocSize reports the size recorded for a live heap allocation.
func (s *Space) AllocSize(addr VAddr) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.sizeOf(addr)
}

// HeapInUse returns the number of live heap bytes.
func (s *Space) HeapInUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.inUse
}

// AllocCachePages reserves n fresh, contiguous cache pages with ProtNone:
// a protected page area in the paper's terms. It returns the base address.
// The pages contain no data yet; the first access faults.
func (s *Space) AllocCachePages(n int) (VAddr, error) {
	if n <= 0 {
		return Null, fmt.Errorf("vmem: cache page count %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	need := VAddr(n * s.pageSize)
	if s.cacheNext+need < s.cacheNext || s.cacheNext+need > spaceTop {
		return Null, fmt.Errorf("%w: cache region exhausted", ErrOutOfMemory)
	}
	base := s.cacheNext
	s.cacheNext += need
	s.mapRangeLocked(base, int(need), ProtNone, true)
	return base, nil
}

// mapRangeLocked ensures pages covering [addr, addr+size) exist with the
// given protection. Existing pages keep their data and protection. Called
// with s.mu held; publishes a fresh page table (copy-on-write) so lock-free
// readers never observe a partially updated slice.
func (s *Space) mapRangeLocked(addr VAddr, size int, prot Prot, cache bool) {
	first := uint32(addr) >> s.pageShift
	last := (uint32(addr) + uint32(size) - 1) >> s.pageShift

	old := s.table.Load()
	missing := false
	for pn := first; pn <= last; pn++ {
		if s.pageAt(old, pn) == nil {
			missing = true
			break
		}
	}
	if !missing {
		return
	}

	// Copy-on-write: clone each region slice at most once, then fill the
	// missing slots. Readers index the published slices without a lock, so
	// the old slices are never mutated in place.
	nt := &pageTable{heap: old.heap, cache: old.cache}
	grow := func(region []*page, idx uint32) []*page {
		need := int(idx) + 1
		if need < len(region) {
			need = len(region)
		}
		out := make([]*page, need, need+need/2)
		copy(out, region)
		return out
	}
	heapCopied, cacheCopied := false, false
	for pn := first; pn <= last; pn++ {
		var slot **page
		if pn >= s.cachePN0 {
			idx := pn - s.cachePN0
			if !cacheCopied {
				nt.cache = grow(nt.cache, idx)
				cacheCopied = true
			} else if int(idx) >= len(nt.cache) {
				nt.cache = grow(nt.cache, idx)
			}
			slot = &nt.cache[idx]
		} else {
			idx := pn - s.heapPN0
			if !heapCopied {
				nt.heap = grow(nt.heap, idx)
				heapCopied = true
			} else if int(idx) >= len(nt.heap) {
				nt.heap = grow(nt.heap, idx)
			}
			slot = &nt.heap[idx]
		}
		if *slot == nil {
			p := &page{data: make([]byte, s.pageSize)}
			p.prot.Store(int32(prot))
			*slot = p
		}
	}
	s.table.Store(nt)
}

// --- protection and dirty bookkeeping ---

// SetProt changes the protection of page pn. It is the runtime's analogue
// of mprotect(2).
func (s *Space) SetProt(pn uint32, prot Prot) error {
	p := s.lookup(pn)
	if p == nil {
		return fmt.Errorf("%w: page %d", ErrUnmapped, pn)
	}
	p.prot.Store(int32(prot))
	return nil
}

// ProtOf returns the protection of page pn.
func (s *Space) ProtOf(pn uint32) (Prot, error) {
	p := s.lookup(pn)
	if p == nil {
		return 0, fmt.Errorf("%w: page %d", ErrUnmapped, pn)
	}
	return Prot(p.prot.Load()), nil
}

// MarkDirty sets or clears the dirty bit of a cache page.
func (s *Space) MarkDirty(pn uint32, dirty bool) error {
	p := s.lookup(pn)
	if p == nil {
		return fmt.Errorf("%w: page %d", ErrUnmapped, pn)
	}
	p.dirty.Store(dirty)
	return nil
}

// IsDirty reports the dirty bit of page pn (false for unmapped pages).
func (s *Space) IsDirty(pn uint32) bool {
	p := s.lookup(pn)
	return p != nil && p.dirty.Load()
}

// DirtyPages returns the page numbers of all dirty cache pages in
// ascending order: the "modified data set" the coherency protocol ships on
// control transfer.
func (s *Space) DirtyPages() []uint32 {
	t := s.table.Load()
	var out []uint32
	for i, p := range t.cache {
		if p != nil && p.dirty.Load() {
			out = append(out, s.cachePN0+uint32(i))
		}
	}
	return out
}

// InvalidateCache discards every cache page: data is zeroed, protection
// returns to ProtNone, and dirty bits clear. This implements the
// end-of-session invalidation multicast's effect on one space. The cache
// address range stays reserved so stale ordinary pointers fault rather
// than alias new data.
func (s *Space) InvalidateCache() {
	if s.concurrent {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	t := s.table.Load()
	for _, p := range t.cache {
		if p == nil {
			continue
		}
		clear(p.data)
		p.prot.Store(int32(ProtNone))
		p.dirty.Store(false)
	}
}

// DemoteCache re-protects every cache page without discarding its data:
// protection returns to ProtNone so the next touch faults, while the page
// bytes survive as the baseline for warm-cache revalidation. Dirty bits
// clear. Compare InvalidateCache, which also zeroes the data.
func (s *Space) DemoteCache() {
	if s.concurrent {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	t := s.table.Load()
	for _, p := range t.cache {
		if p == nil {
			continue
		}
		p.prot.Store(int32(ProtNone))
		p.dirty.Store(false)
	}
}

// --- raw (kernel-mode) access: no protection checks, no faults ---

// ReadRaw copies len(buf) bytes from addr without protection checks. The
// runtime uses it to marshal data out of pages regardless of protection.
func (s *Space) ReadRaw(addr VAddr, buf []byte) error {
	return s.rawAccess(addr, buf, true)
}

// WriteRaw copies data to addr without protection checks or dirty
// bookkeeping. The runtime uses it to install fetched data.
func (s *Space) WriteRaw(addr VAddr, data []byte) error {
	return s.rawAccess(addr, data, false)
}

func (s *Space) rawAccess(addr VAddr, buf []byte, read bool) error {
	if addr == Null {
		return ErrNull
	}
	if len(buf) == 0 {
		return nil
	}
	t := s.table.Load()
	// Fast path: the whole access falls inside one mapped page.
	po := int(uint32(addr) & s.pageMask)
	if po+len(buf) <= s.pageSize {
		p := s.pageAt(t, uint32(addr)>>s.pageShift)
		if p == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint32(addr))
		}
		if s.concurrent {
			s.mu.Lock()
		}
		if read {
			copy(buf, p.data[po:po+len(buf)])
		} else {
			copy(p.data[po:po+len(buf)], buf)
		}
		if s.concurrent {
			s.mu.Unlock()
		}
		return nil
	}
	if s.concurrent {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	off := 0
	for off < len(buf) {
		a := addr + VAddr(off)
		p := s.pageAt(t, uint32(a)>>s.pageShift)
		if p == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint32(a))
		}
		po := int(uint32(a) & s.pageMask)
		n := s.pageSize - po
		if n > len(buf)-off {
			n = len(buf) - off
		}
		if read {
			copy(buf[off:off+n], p.data[po:po+n])
		} else {
			copy(p.data[po:po+n], buf[off:off+n])
		}
		off += n
	}
	return nil
}

// Zero clears size bytes starting at addr without protection checks and
// without allocating a scratch buffer. The runtime uses it to initialize
// fresh objects.
func (s *Space) Zero(addr VAddr, size int) error {
	if addr == Null {
		return ErrNull
	}
	if size <= 0 {
		return nil
	}
	if s.concurrent {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	t := s.table.Load()
	off := 0
	for off < size {
		a := addr + VAddr(off)
		p := s.pageAt(t, uint32(a)>>s.pageShift)
		if p == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint32(a))
		}
		po := int(uint32(a) & s.pageMask)
		n := s.pageSize - po
		if n > size-off {
			n = size - off
		}
		clear(p.data[po : po+n])
		off += n
	}
	return nil
}

// --- checked (user-mode) access: protection checks with fault delivery ---

// Read copies len(buf) bytes from addr, delivering faults for pages below
// ProtRead. This is what application-level loads go through.
func (s *Space) Read(addr VAddr, buf []byte) error {
	return s.access(addr, buf, FaultRead)
}

// Write copies data to addr, delivering faults for pages below
// ProtReadWrite. This is what application-level stores go through.
func (s *Space) Write(addr VAddr, data []byte) error {
	return s.access(addr, data, FaultWrite)
}

// access performs a checked copy. The fast path — a single already
// accessible page — is lock-free (one atomic table load plus one atomic
// protection load); everything else goes through accessSlow.
func (s *Space) access(addr VAddr, buf []byte, kind FaultKind) error {
	if addr == Null {
		return ErrNull
	}
	if len(buf) == 0 {
		return nil
	}
	po := int(uint32(addr) & s.pageMask)
	if po+len(buf) <= s.pageSize {
		if p := s.lookup(uint32(addr) >> s.pageShift); p != nil && allows(Prot(p.prot.Load()), kind) {
			if s.concurrent {
				s.mu.Lock()
			}
			if kind == FaultRead {
				copy(buf, p.data[po:po+len(buf)])
			} else {
				copy(p.data[po:po+len(buf)], buf)
			}
			if s.concurrent {
				s.mu.Unlock()
			}
			return nil
		}
	}
	return s.accessSlow(addr, buf, kind)
}

// accessSlow handles faulting and page-straddling checked accesses. It is
// fault-atomic: every page the access touches is faulted in and verified
// accessible before the first byte is copied, so an unresolved fault on a
// later page aborts the access with memory unchanged. (In Concurrent mode
// another goroutine can still change protection between the verification
// scan and the copy — the same window the original locked implementation
// had between its per-page protection check and copy.)
func (s *Space) accessSlow(addr VAddr, buf []byte, kind FaultKind) error {
	first := uint32(addr) >> s.pageShift
	last := (uint32(addr) + uint32(len(buf)) - 1) >> s.pageShift
	// Bounded rounds defend against handlers that flap protection.
	const maxRounds = 3
	for round := 0; ; round++ {
		faulted := false
		for pn := first; pn <= last; pn++ {
			p := s.lookup(pn)
			a := addr
			if pn != first {
				a = s.PageBase(pn)
			}
			if p == nil {
				return fmt.Errorf("%w: %#x", ErrUnmapped, uint32(a))
			}
			if allows(Prot(p.prot.Load()), kind) {
				continue
			}
			if round >= maxRounds {
				return fmt.Errorf("%w: %s of %#x", ErrFaultUnresolved, kind, uint32(a))
			}
			h := s.loadHandler()
			s.faults.Add(1)
			if h == nil {
				return fmt.Errorf("%w: %s of %#x", ErrNoHandler, kind, uint32(a))
			}
			if err := h(Fault{Addr: a, Page: pn, Kind: kind}); err != nil {
				return fmt.Errorf("vmem: %s fault at %#x: %w", kind, uint32(a), err)
			}
			faulted = true
		}
		if !faulted {
			break
		}
	}
	if s.concurrent {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	t := s.table.Load()
	off := 0
	for off < len(buf) {
		a := addr + VAddr(off)
		p := s.pageAt(t, uint32(a)>>s.pageShift)
		if p == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint32(a))
		}
		po := int(uint32(a) & s.pageMask)
		n := s.pageSize - po
		if n > len(buf)-off {
			n = len(buf) - off
		}
		if kind == FaultRead {
			copy(buf[off:off+n], p.data[po:po+n])
		} else {
			copy(p.data[po:po+n], buf[off:off+n])
		}
		off += n
	}
	return nil
}

// --- typed access (profile byte order) ---

// ReadUint reads an unsigned integer of the given byte width (1, 2, 4, 8)
// through the checked path. The accessible single-page case is
// zero-allocation and lock-free.
func (s *Space) ReadUint(addr VAddr, width int) (uint64, error) {
	if addr != Null {
		po := int(uint32(addr) & s.pageMask)
		if po+width <= s.pageSize {
			if p := s.lookup(uint32(addr) >> s.pageShift); p != nil && allows(Prot(p.prot.Load()), FaultRead) {
				if s.concurrent {
					s.mu.Lock()
				}
				v := decodeUint(p.data[po:po+width], s.profile.Order)
				if s.concurrent {
					s.mu.Unlock()
				}
				return v, nil
			}
		}
	}
	var buf [8]byte
	if err := s.Read(addr, buf[:width]); err != nil {
		return 0, err
	}
	return decodeUint(buf[:width], s.profile.Order), nil
}

// WriteUint writes an unsigned integer of the given byte width through the
// checked path. The accessible single-page case is zero-allocation and
// lock-free.
func (s *Space) WriteUint(addr VAddr, width int, v uint64) error {
	if addr != Null {
		po := int(uint32(addr) & s.pageMask)
		if po+width <= s.pageSize {
			if p := s.lookup(uint32(addr) >> s.pageShift); p != nil && allows(Prot(p.prot.Load()), FaultWrite) {
				if s.concurrent {
					s.mu.Lock()
				}
				encodeUint(p.data[po:po+width], s.profile.Order, v)
				if s.concurrent {
					s.mu.Unlock()
				}
				return nil
			}
		}
	}
	var buf [8]byte
	encodeUint(buf[:width], s.profile.Order, v)
	return s.Write(addr, buf[:width])
}

// ReadPtr reads an ordinary pointer (profile pointer size) through the
// checked path.
func (s *Space) ReadPtr(addr VAddr) (VAddr, error) {
	v, err := s.ReadUint(addr, s.profile.PointerSize)
	return VAddr(v), err
}

// WritePtr writes an ordinary pointer through the checked path.
func (s *Space) WritePtr(addr VAddr, v VAddr) error {
	return s.WriteUint(addr, s.profile.PointerSize, uint64(v))
}

// ReadUintRaw reads an unsigned integer without protection checks.
func (s *Space) ReadUintRaw(addr VAddr, width int) (uint64, error) {
	if addr != Null {
		po := int(uint32(addr) & s.pageMask)
		if po+width <= s.pageSize {
			if p := s.lookup(uint32(addr) >> s.pageShift); p != nil {
				if s.concurrent {
					s.mu.Lock()
				}
				v := decodeUint(p.data[po:po+width], s.profile.Order)
				if s.concurrent {
					s.mu.Unlock()
				}
				return v, nil
			}
		}
	}
	var buf [8]byte
	if err := s.ReadRaw(addr, buf[:width]); err != nil {
		return 0, err
	}
	return decodeUint(buf[:width], s.profile.Order), nil
}

// WriteUintRaw writes an unsigned integer without protection checks.
func (s *Space) WriteUintRaw(addr VAddr, width int, v uint64) error {
	if addr != Null {
		po := int(uint32(addr) & s.pageMask)
		if po+width <= s.pageSize {
			if p := s.lookup(uint32(addr) >> s.pageShift); p != nil {
				if s.concurrent {
					s.mu.Lock()
				}
				encodeUint(p.data[po:po+width], s.profile.Order, v)
				if s.concurrent {
					s.mu.Unlock()
				}
				return nil
			}
		}
	}
	var buf [8]byte
	encodeUint(buf[:width], s.profile.Order, v)
	return s.WriteRaw(addr, buf[:width])
}

// ReadPtrRaw reads an ordinary pointer without protection checks.
func (s *Space) ReadPtrRaw(addr VAddr) (VAddr, error) {
	v, err := s.ReadUintRaw(addr, s.profile.PointerSize)
	return VAddr(v), err
}

// WritePtrRaw writes an ordinary pointer without protection checks.
func (s *Space) WritePtrRaw(addr VAddr, v VAddr) error {
	return s.WriteUintRaw(addr, s.profile.PointerSize, uint64(v))
}

// decodeUint and encodeUint convert a word of len(b) bytes in the given
// order; the pointer and int widths (4 and 8) take encoding/binary's
// single-load forms.
func decodeUint(b []byte, order arch.ByteOrder) uint64 {
	if order == arch.BigEndian {
		switch len(b) {
		case 8:
			return binary.BigEndian.Uint64(b)
		case 4:
			return uint64(binary.BigEndian.Uint32(b))
		}
		var v uint64
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		return v
	}
	switch len(b) {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func encodeUint(b []byte, order arch.ByteOrder, v uint64) {
	if order == arch.BigEndian {
		switch len(b) {
		case 8:
			binary.BigEndian.PutUint64(b, v)
		case 4:
			binary.BigEndian.PutUint32(b, uint32(v))
		default:
			for i := len(b) - 1; i >= 0; i-- {
				b[i] = byte(v)
				v >>= 8
			}
		}
		return
	}
	switch len(b) {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		for i := range b {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
