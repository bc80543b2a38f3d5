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
// # The cache region's life cycle
//
// The paper makes every cached page dead at session end (§3.4), so the
// cache region recycles its pages instead of growing with every session.
// A cache page is in one of three states:
//
//   - in use: handed out by AllocCachePages since the last
//     InvalidateCache. DemoteCache and DirtyPages walk these pages only.
//   - quarantined: InvalidateCache zeroed and re-protected it. Any checked
//     access to it fails with ErrStalePage, without reaching the fault
//     handler. A page stays quarantined for Quarantine hard invalidations,
//     first in, first out.
//   - free: out of quarantine, zeroed and protected, waiting to be handed
//     out again. An access to it still fails with ErrStalePage.
//
// So an ordinary pointer kept past the end of its session fails with
// ErrStalePage for at least Quarantine sessions; after that its page may
// be handed out again and the pointer may alias new data. Within one
// session AllocCachePages hands out page runs in ascending address order
// — the lowest free run above the last page it handed out, else fresh
// pages at the top of the region — so the swizzle table's page records,
// indexed from a session's first page, and every (page, offset) walk over
// them follow address order.
//
// # Concurrency model
//
// Page lookup is a flat slice index per region (both regions grow at the
// top, so the mapped pages of each region are dense) against an
// atomically published page table, and per-page protection, dirty and
// retired bits are atomics, so the metadata side of every access is
// lock-free. The table's slices grow by appending into spare capacity:
// a reader only indexes below the length of the snapshot it loaded, so
// slots written past it are invisible to it. Page frames are carved out of
// pointer-free slabs.
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
	"math/bits"
	"slices"
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
	// ErrStalePage is returned for a checked access to a cache page that
	// InvalidateCache retired: an ordinary pointer kept past the end of
	// its session.
	ErrStalePage = errors.New("vmem: access to a cache page retired at session end")
)

// Quarantine is the number of hard invalidations (InvalidateCache) a
// retired cache page waits before AllocCachePages may hand it out again.
const Quarantine = 4

// maxSlabBytes caps the slabs page frames are carved from. A slab holds a
// quarter as many pages as the space has mapped, at least one, so a space
// that maps few pages maps them one by one, and no space leaves more than
// a quarter of its frames, or one slab, unused.
const maxSlabBytes = 64 << 10

// page is one unit of protection and transfer. data is fixed at creation;
// prot, dirty and retired are atomics so protection checks and dirty
// bookkeeping never take a lock.
type page struct {
	data    []byte
	prot    atomic.Int32
	dirty   atomic.Bool // cache page modified since install (coherency protocol)
	retired atomic.Bool // cache page quarantined or free: no session owns it
}

// pageTable is the flat page table: one dense slice per region, indexed by
// page number minus the region's base page number. A published table is
// never changed below its slices' lengths; growth appends past them and
// publishes a fresh header. *page pointers stay stable across growth.
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

	mu   sync.Mutex // guards growth, the allocators and the walk counter; copies too when concurrent
	heap allocator
	// The cache region's bookkeeping (see the package comment). inUse
	// lists the pages handed out since the last InvalidateCache, ascending;
	// quarantine is a FIFO ring of the page lists of the last Quarantine
	// invalidations, oldest at qHead; free has bit i set when cache page
	// cachePN0+i is free. The lists' backing arrays rotate through the
	// ring, so a steady workload allocates nothing per session.
	cacheNext  VAddr // bump pointer: pages at and above it were never mapped
	inUse      []uint32
	quarantine [Quarantine][]uint32
	qHead      int
	free       []uint64
	nFree      int
	walked     uint64 // cache pages visited by session-end walks
	// Page frames and page structs are carved from the current slabs.
	slab     []byte
	slabPage []page
	mapped   int // pages carved so far
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
	s.heap.init(heapBase, cacheBase, shift)
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
	s.mapRangeLocked(addr, size, ProtReadWrite)
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

// AllocCachePages reserves n contiguous cache pages with ProtNone: a
// protected page area in the paper's terms. It returns the base address.
// The pages contain no data yet; the first access faults. The run is the
// lowest free one above every page handed out since the last
// InvalidateCache, or else fresh pages at the top of the region.
func (s *Space) AllocCachePages(n int) (VAddr, error) {
	if n <= 0 {
		return Null, fmt.Errorf("vmem: cache page count %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.takeFreeLocked(n)
	if !ok {
		need := VAddr(n * s.pageSize)
		if s.cacheNext+need < s.cacheNext || s.cacheNext+need > spaceTop {
			return Null, fmt.Errorf("%w: cache region exhausted", ErrOutOfMemory)
		}
		first = s.PageOf(s.cacheNext)
		s.mapRangeLocked(s.cacheNext, int(need), ProtNone)
		s.cacheNext += need
	}
	for pn := first; pn < first+uint32(n); pn++ {
		s.inUse = append(s.inUse, pn)
	}
	return s.PageBase(first), nil
}

// takeFreeLocked claims the lowest run of n free pages above the last page
// in use and returns its first page number; ok is false when there is none.
// Free pages are already zeroed and protected.
func (s *Space) takeFreeLocked(n int) (first uint32, ok bool) {
	if s.nFree < n {
		return 0, false
	}
	i := 0 // bit index: page cachePN0+i
	if k := len(s.inUse); k > 0 {
		i = int(s.inUse[k-1]-s.cachePN0) + 1
	}
	run := 0
	for ; i < 64*len(s.free); i++ {
		w := s.free[i>>6] >> (i & 63)
		if w&1 == 0 {
			// Skip to the next free page, or past this word.
			run = 0
			if w == 0 {
				i |= 63
			} else {
				i += bits.TrailingZeros64(w) - 1
			}
			continue
		}
		if run++; run == n {
			lo := i + 1 - n
			t := s.table.Load()
			for j := lo; j <= i; j++ {
				s.free[j>>6] &^= 1 << (j & 63)
				s.pageAt(t, s.cachePN0+uint32(j)).retired.Store(false)
			}
			s.nFree -= n
			return s.cachePN0 + uint32(lo), true
		}
	}
	return 0, false
}

// mapRangeLocked ensures pages covering [addr, addr+size), which lies in
// one region, exist with the given protection. Existing pages keep their
// data and protection. Called with s.mu held. Lock-free readers index only
// below the lengths of the table they loaded, so new slots are appended
// past them into spare capacity and a fresh table header is published; a
// slot below the published length (a hole left by alignment padding) is
// filled in a copy.
func (s *Space) mapRangeLocked(addr VAddr, size int, prot Prot) {
	first := uint32(addr) >> s.pageShift
	last := (uint32(addr) + uint32(size) - 1) >> s.pageShift

	nt := *s.table.Load()
	region, base := &nt.heap, s.heapPN0
	if first >= s.cachePN0 {
		region, base = &nt.cache, s.cachePN0
	}
	published := len(*region)
	changed := false
	for pn := first; pn <= last; pn++ {
		i := int(pn - base)
		if i < len(*region) && (*region)[i] != nil {
			continue
		}
		// Holes come before appended slots, so the first fill of this call
		// is the one that may need the copy.
		if i < published && !changed {
			*region = slices.Clone(*region)
		}
		for len(*region) <= i {
			*region = append(*region, nil)
		}
		(*region)[i] = s.newPageLocked(prot)
		changed = true
	}
	if changed {
		published := nt
		s.table.Store(&published)
	}
}

// newPageLocked carves a page and its frame out of the current slabs,
// starting new ones when they are used up.
func (s *Space) newPageLocked(prot Prot) *page {
	if len(s.slabPage) == 0 {
		n := max(1, min(s.mapped/4, maxSlabBytes/s.pageSize))
		s.slabPage = make([]page, n)
		s.slab = make([]byte, n*s.pageSize)
	}
	s.mapped++
	p := &s.slabPage[0]
	s.slabPage = s.slabPage[1:]
	p.data = s.slab[:s.pageSize:s.pageSize]
	s.slab = s.slab[s.pageSize:]
	p.prot.Store(int32(prot))
	return p
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

// DirtyPages appends to dst the page numbers of all dirty cache pages in
// ascending order, and returns the extended slice: the "modified data set"
// the coherency protocol ships on control transfer. It visits only the
// pages in use.
func (s *Space) DirtyPages(dst []uint32) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	s.walked += uint64(len(s.inUse))
	for _, pn := range s.inUse {
		if s.pageAt(t, pn).dirty.Load() {
			dst = append(dst, pn)
		}
	}
	return dst
}

// InvalidateCache retires every cache page in use: its data is zeroed,
// its protection returns to ProtNone and its dirty bit clears. This
// implements the end-of-session invalidation multicast's effect on one
// space. The retired pages enter the quarantine, and the pages that
// entered it Quarantine invalidations ago leave it for the free list.
// Until its page is handed out again, a stale ordinary pointer into the
// retired range fails with ErrStalePage rather than aliasing new data.
func (s *Space) InvalidateCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	s.walked += uint64(len(s.inUse))
	for _, pn := range s.inUse {
		p := s.pageAt(t, pn)
		clear(p.data)
		p.prot.Store(int32(ProtNone))
		p.dirty.Store(false)
		p.retired.Store(true)
	}
	out := s.quarantine[s.qHead]
	if len(out) > 0 {
		for len(s.free) < (len(t.cache)+63)/64 {
			s.free = append(s.free, 0)
		}
		for _, pn := range out {
			i := pn - s.cachePN0
			s.free[i>>6] |= 1 << (i & 63)
		}
		s.nFree += len(out)
	}
	s.quarantine[s.qHead] = s.inUse
	s.inUse = out[:0]
	s.qHead = (s.qHead + 1) % Quarantine
}

// DemoteCache re-protects every cache page in use without discarding its
// data: protection returns to ProtNone so the next touch faults, while the
// page bytes survive as the baseline for warm-cache revalidation. Dirty
// bits clear and the pages stay in use. Compare InvalidateCache, which
// also zeroes the data and retires the pages.
func (s *Space) DemoteCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	s.walked += uint64(len(s.inUse))
	for _, pn := range s.inUse {
		p := s.pageAt(t, pn)
		p.prot.Store(int32(ProtNone))
		p.dirty.Store(false)
	}
}

// CacheInUse reports whether cache page pn has been handed out by
// AllocCachePages since the last InvalidateCache. A table row on a page
// that is not in use would alias whatever the page holds next.
func (s *Space) CacheInUse(pn uint32) bool {
	if pn < s.cachePN0 {
		return false
	}
	p := s.lookup(pn)
	return p != nil && !p.retired.Load()
}

// CacheUsage is a snapshot of the cache region's bookkeeping, in pages.
type CacheUsage struct {
	// Reserved counts the pages ever mapped: the region's footprint.
	Reserved int
	// InUse, Quarantined and Free partition Reserved.
	InUse, Quarantined, Free int
	// Walked counts the pages DirtyPages, InvalidateCache and DemoteCache
	// have visited so far.
	Walked uint64
}

// CacheUsage reports the cache region's bookkeeping.
func (s *Space) CacheUsage() CacheUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := CacheUsage{
		Reserved: int(s.cacheNext-cacheBase) >> s.pageShift,
		InUse:    len(s.inUse),
		Free:     s.nFree,
		Walked:   s.walked,
	}
	for _, q := range s.quarantine {
		u.Quarantined += len(q)
	}
	return u
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
			if p.retired.Load() {
				return fmt.Errorf("%w: %s of %#x on page %d", ErrStalePage, kind, uint32(a), pn)
			}
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
