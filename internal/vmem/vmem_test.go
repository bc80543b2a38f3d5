package vmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"smartrpc/internal/arch"
)

func newSpace(t *testing.T, cfg Config) *Space {
	t.Helper()
	s, err := NewSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigDefaults(t *testing.T) {
	s := newSpace(t, Config{})
	if s.PageSize() != 4096 {
		t.Errorf("default page size = %d, want 4096", s.PageSize())
	}
	if s.Profile().Name != "sparc32" {
		t.Errorf("default profile = %q, want sparc32", s.Profile().Name)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSpace(Config{PageSize: 100}); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := NewSpace(Config{PageSize: 32}); err == nil {
		t.Error("tiny page size accepted")
	}
	if _, err := NewSpace(Config{Profile: arch.Profile{Name: "bad", PointerSize: 3}}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestAllocReadWrite(t *testing.T) {
	s := newSpace(t, Config{})
	addr, err := s.Alloc(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InHeap(addr) {
		t.Errorf("Alloc returned %#x outside heap region", uint32(addr))
	}
	want := []byte{1, 2, 3, 4, 5}
	if err := s.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := s.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read back %v, want %v", got, want)
		}
	}
}

func TestNullAccess(t *testing.T) {
	s := newSpace(t, Config{})
	if err := s.Read(Null, make([]byte, 4)); !errors.Is(err, ErrNull) {
		t.Errorf("Read(Null) err = %v, want ErrNull", err)
	}
	if err := s.WriteRaw(Null, []byte{1}); !errors.Is(err, ErrNull) {
		t.Errorf("WriteRaw(Null) err = %v, want ErrNull", err)
	}
}

func TestUnmappedAccess(t *testing.T) {
	s := newSpace(t, Config{})
	if err := s.Read(0x2000_0000, make([]byte, 4)); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped read err = %v, want ErrUnmapped", err)
	}
}

func TestCachePageFaultsOnFirstAccess(t *testing.T) {
	s := newSpace(t, Config{})
	base, err := s.AllocCachePages(1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InCache(base) {
		t.Errorf("cache page at %#x not in cache region", uint32(base))
	}
	var faulted []Fault
	s.SetHandler(func(f Fault) error {
		faulted = append(faulted, f)
		// Simulate the runtime: install data, release protection.
		if err := s.WriteRaw(s.PageBase(f.Page), []byte{0xAB}); err != nil {
			return err
		}
		return s.SetProt(f.Page, ProtRead)
	})
	buf := make([]byte, 1)
	if err := s.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	if len(faulted) != 1 || faulted[0].Kind != FaultRead || faulted[0].Page != s.PageOf(base) {
		t.Fatalf("faults = %+v", faulted)
	}
	if buf[0] != 0xAB {
		t.Errorf("read %#x after install, want 0xAB", buf[0])
	}
	// Second read: no further fault (data is cached).
	if err := s.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	if len(faulted) != 1 {
		t.Errorf("second read faulted again: %d faults", len(faulted))
	}
}

func TestWriteFaultOnReadOnlyPage(t *testing.T) {
	s := newSpace(t, Config{})
	base, err := s.AllocCachePages(1)
	if err != nil {
		t.Fatal(err)
	}
	pn := s.PageOf(base)
	if err := s.SetProt(pn, ProtRead); err != nil {
		t.Fatal(err)
	}
	var kinds []FaultKind
	s.SetHandler(func(f Fault) error {
		kinds = append(kinds, f.Kind)
		// Dirty-detection path: mark dirty, upgrade protection.
		if err := s.MarkDirty(f.Page, true); err != nil {
			return err
		}
		return s.SetProt(f.Page, ProtReadWrite)
	})
	if err := s.Write(base, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != FaultWrite {
		t.Fatalf("fault kinds = %v, want [write]", kinds)
	}
	if !s.IsDirty(pn) {
		t.Error("page not marked dirty after write fault")
	}
	// Reads never fault on ProtRead pages.
	if err := s.Read(base, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 {
		t.Errorf("read faulted on rw page")
	}
}

func TestFaultWithoutHandler(t *testing.T) {
	s := newSpace(t, Config{})
	base, _ := s.AllocCachePages(1)
	if err := s.Read(base, make([]byte, 1)); !errors.Is(err, ErrNoHandler) {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestFaultHandlerError(t *testing.T) {
	s := newSpace(t, Config{})
	base, _ := s.AllocCachePages(1)
	boom := errors.New("boom")
	s.SetHandler(func(Fault) error { return boom })
	if err := s.Read(base, make([]byte, 1)); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestFaultUnresolved(t *testing.T) {
	s := newSpace(t, Config{})
	base, _ := s.AllocCachePages(1)
	calls := 0
	s.SetHandler(func(Fault) error { calls++; return nil })
	if err := s.Read(base, make([]byte, 1)); !errors.Is(err, ErrFaultUnresolved) {
		t.Errorf("err = %v, want ErrFaultUnresolved", err)
	}
	if calls == 0 || calls > 4 {
		t.Errorf("handler ran %d times, want bounded retries", calls)
	}
}

func TestFaultCounter(t *testing.T) {
	s := newSpace(t, Config{})
	base, _ := s.AllocCachePages(2)
	s.SetHandler(func(f Fault) error { return s.SetProt(f.Page, ProtReadWrite) })
	if err := s.Write(base, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(base+VAddr(s.PageSize()), make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Faults(); got != 2 {
		t.Errorf("Faults() = %d, want 2", got)
	}
}

func TestAccessSpanningPages(t *testing.T) {
	s := newSpace(t, Config{PageSize: 64})
	base, err := s.AllocCachePages(2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetHandler(func(f Fault) error { return s.SetProt(f.Page, ProtReadWrite) })
	data := make([]byte, 60)
	for i := range data {
		data[i] = byte(i)
	}
	start := base + 30 // crosses the page boundary at 64
	if err := s.Write(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 60)
	if err := s.Read(start, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	if s.Faults() != 2 {
		t.Errorf("spanning write delivered %d faults, want 2 (one per page)", s.Faults())
	}
}

func TestSpanningAccessFaultAtomic(t *testing.T) {
	// A write that straddles a page boundary where the second page's fault
	// cannot be resolved must abort without modifying either page: all
	// pages in the span are faulted in and verified before any byte moves.
	s := newSpace(t, Config{PageSize: 64})
	base, err := s.AllocCachePages(2)
	if err != nil {
		t.Fatal(err)
	}
	secondPN := s.PageOf(base) + 1
	s.SetHandler(func(f Fault) error {
		if f.Page == secondPN {
			return nil // leave protection unchanged: unresolvable
		}
		return s.SetProt(f.Page, ProtReadWrite)
	})
	data := make([]byte, 60)
	for i := range data {
		data[i] = 0xEE
	}
	start := base + 30 // crosses the boundary at offset 64
	if err := s.Write(start, data); !errors.Is(err, ErrFaultUnresolved) {
		t.Fatalf("spanning write err = %v, want ErrFaultUnresolved", err)
	}
	// Nothing may have been written, not even the first page's portion.
	got := make([]byte, 60)
	if err := s.ReadRaw(start, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x after aborted spanning write, want 0", i, b)
		}
	}
	// Reads spanning the same boundary abort without partial results too.
	probe := []byte{1, 2, 3}
	buf := make([]byte, 60)
	copy(buf, probe)
	if err := s.Read(start, buf); !errors.Is(err, ErrFaultUnresolved) {
		t.Fatalf("spanning read err = %v, want ErrFaultUnresolved", err)
	}
	for i, b := range probe {
		if buf[i] != b {
			t.Fatalf("aborted spanning read clobbered buf[%d] = %#x", i, buf[i])
		}
	}
}

func TestZero(t *testing.T) {
	s := newSpace(t, Config{PageSize: 64})
	addr, err := s.Alloc(150, 8) // spans three 64-byte pages
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 150)
	for i := range fill {
		fill[i] = 0xFF
	}
	if err := s.WriteRaw(addr, fill); err != nil {
		t.Fatal(err)
	}
	if err := s.Zero(addr+5, 140); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 150)
	if err := s.ReadRaw(addr, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0)
		if i < 5 || i >= 145 {
			want = 0xFF
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
	if err := s.Zero(Null, 8); !errors.Is(err, ErrNull) {
		t.Errorf("Zero(Null) err = %v, want ErrNull", err)
	}
	if err := s.Zero(0x2000_0000, 8); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Zero(unmapped) err = %v, want ErrUnmapped", err)
	}
}

func TestTypedAccessByteOrder(t *testing.T) {
	big := newSpace(t, Config{Profile: arch.SPARC32()})
	little := newSpace(t, Config{Profile: arch.Alpha64()})
	for _, s := range []*Space{big, little} {
		addr, err := s.Alloc(16, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteUint(addr, 4, 0x01020304); err != nil {
			t.Fatal(err)
		}
		v, err := s.ReadUint(addr, 4)
		if err != nil || v != 0x01020304 {
			t.Fatalf("%s: ReadUint = %#x, %v", s.Profile().Name, v, err)
		}
	}
	// Verify the in-memory representation actually differs.
	a1, _ := big.Alloc(8, 8)
	a2, _ := little.Alloc(8, 8)
	_ = big.WriteUint(a1, 4, 0x01020304)
	_ = little.WriteUint(a2, 4, 0x01020304)
	b1 := make([]byte, 4)
	b2 := make([]byte, 4)
	_ = big.ReadRaw(a1, b1)
	_ = little.ReadRaw(a2, b2)
	if b1[0] != 0x01 || b2[0] != 0x04 {
		t.Errorf("byte order not honored: big %v little %v", b1, b2)
	}
}

func TestPointerWidthPerProfile(t *testing.T) {
	s64 := newSpace(t, Config{Profile: arch.Alpha64()})
	addr, _ := s64.Alloc(16, 8)
	if err := s64.WritePtr(addr, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v, err := s64.ReadPtr(addr)
	if err != nil || v != 0x12345678 {
		t.Fatalf("ReadPtr = %#x, %v", uint32(v), err)
	}
	if s64.PointerSize() != 8 {
		t.Errorf("alpha64 pointer size = %d", s64.PointerSize())
	}
}

func TestDirtyPagesAndInvalidate(t *testing.T) {
	s := newSpace(t, Config{})
	base, _ := s.AllocCachePages(3)
	for i := 0; i < 3; i++ {
		pn := s.PageOf(base) + uint32(i)
		if err := s.SetProt(pn, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MarkDirty(s.PageOf(base)+1, true); err != nil {
		t.Fatal(err)
	}
	dirty := s.DirtyPages(nil)
	if len(dirty) != 1 || dirty[0] != s.PageOf(base)+1 {
		t.Fatalf("DirtyPages = %v", dirty)
	}
	// Heap pages never count as dirty cache pages.
	ha, _ := s.Alloc(8, 8)
	_ = s.Write(ha, []byte{1})
	if len(s.DirtyPages(nil)) != 1 {
		t.Error("heap write polluted dirty cache set")
	}
	_ = s.WriteRaw(base, []byte{0xFF})
	s.InvalidateCache()
	if len(s.DirtyPages(nil)) != 0 {
		t.Error("dirty pages survive invalidation")
	}
	p, err := s.ProtOf(s.PageOf(base))
	if err != nil || p != ProtNone {
		t.Errorf("cache page prot after invalidate = %v, %v", p, err)
	}
	b := make([]byte, 1)
	if err := s.ReadRaw(base, b); err != nil || b[0] != 0 {
		t.Errorf("cache data survives invalidation: %v %v", b, err)
	}
}

func TestAllocCachePagesContiguous(t *testing.T) {
	s := newSpace(t, Config{PageSize: 256})
	a, err := s.AllocCachePages(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AllocCachePages(1)
	if err != nil {
		t.Fatal(err)
	}
	if b != a+VAddr(4*256) {
		t.Errorf("second area at %#x, want %#x", uint32(b), uint32(a+1024))
	}
}

func TestHeapFreeAndReuse(t *testing.T) {
	s := newSpace(t, Config{})
	a, err := s.Alloc(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.HeapInUse() != 128 {
		t.Errorf("HeapInUse = %d", s.HeapInUse())
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if s.HeapInUse() != 0 {
		t.Errorf("HeapInUse after free = %d", s.HeapInUse())
	}
	b, err := s.Alloc(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("freed block not reused: got %#x want %#x", uint32(b), uint32(a))
	}
}

func TestDoubleFree(t *testing.T) {
	s := newSpace(t, Config{})
	a, _ := s.Alloc(8, 8)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free err = %v, want ErrBadFree", err)
	}
	if err := s.Free(0x123); !errors.Is(err, ErrBadFree) {
		t.Errorf("wild free err = %v, want ErrBadFree", err)
	}
}

func TestAllocSize(t *testing.T) {
	s := newSpace(t, Config{})
	a, _ := s.Alloc(10, 8)
	n, err := s.AllocSize(a)
	if err != nil || n != 16 { // rounded to 8
		t.Errorf("AllocSize = %d, %v; want 16", n, err)
	}
}

func TestAllocAlignment(t *testing.T) {
	s := newSpace(t, Config{})
	for _, align := range []int{1, 2, 4, 8, 16, 64} {
		a, err := s.Alloc(3, align)
		if err != nil {
			t.Fatal(err)
		}
		if uint32(a)%uint32(align) != 0 {
			t.Errorf("Alloc align %d returned %#x", align, uint32(a))
		}
	}
}

func TestAllocRejectsBadSize(t *testing.T) {
	s := newSpace(t, Config{})
	if _, err := s.Alloc(0, 8); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := s.Alloc(-5, 8); err == nil {
		t.Error("Alloc(-5) succeeded")
	}
	if _, err := s.AllocCachePages(0); err == nil {
		t.Error("AllocCachePages(0) succeeded")
	}
}

func TestProtString(t *testing.T) {
	if ProtNone.String() != "---" || ProtRead.String() != "r--" || ProtReadWrite.String() != "rw-" {
		t.Error("Prot.String mismatch")
	}
	if FaultRead.String() != "read" || FaultWrite.String() != "write" {
		t.Error("FaultKind.String mismatch")
	}
}

func TestConcurrentFaultingReaders(t *testing.T) {
	// Many goroutines touch the same protected page concurrently; the
	// handler installs data exactly like the runtime would. All readers
	// must see the installed bytes, with no deadlock or panic. Sharing a
	// Space between application goroutines outside the RPC protocol's
	// single-active-thread discipline requires Concurrent mode.
	s := newSpace(t, Config{Concurrent: true})
	base, err := s.AllocCachePages(1)
	if err != nil {
		t.Fatal(err)
	}
	var installs atomic.Int64
	s.SetHandler(func(f Fault) error {
		installs.Add(1)
		if err := s.WriteRaw(s.PageBase(f.Page), []byte{0xCD}); err != nil {
			return err
		}
		return s.SetProt(f.Page, ProtRead)
	})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1)
			if err := s.Read(base, buf); err != nil {
				errs <- err
				return
			}
			if buf[0] != 0xCD {
				errs <- fmt.Errorf("read %#x", buf[0])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if installs.Load() == 0 {
		t.Error("no install happened")
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	// Concurrent readers and writers on heap memory: in Concurrent mode
	// the space's internal locking must keep every access atomic at the
	// word level.
	s := newSpace(t, Config{Concurrent: true})
	addr, err := s.Alloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		v := uint64(i+1) * 0x0101010101010101
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = s.WriteUint(addr, 8, v)
			}
		}()
	}
	stop := make(chan struct{})
	bad := make(chan uint64, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := s.ReadUint(addr, 8)
			if err != nil {
				return
			}
			// Word-level atomicity: every observed value is one of the
			// written patterns or zero.
			if got != 0 && (got%0x0101010101010101 != 0 || got/0x0101010101010101 > 16) {
				select {
				case bad <- got:
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	select {
	case v := <-bad:
		t.Errorf("torn read observed: %#x", v)
	default:
	}
}

// TestWordCodecMatchesByteLoop holds the word codec's 4- and 8-byte fast
// paths to the byte loop they shortcut, for every width and both orders.
func TestWordCodecMatchesByteLoop(t *testing.T) {
	const v = 0x0123456789ABCDEF
	for _, order := range []arch.ByteOrder{arch.BigEndian, arch.LittleEndian} {
		for width := 1; width <= 8; width++ {
			want := make([]byte, width)
			for i := range want {
				shift := 8 * i // little-endian: byte i holds bits 8i..8i+7
				if order == arch.BigEndian {
					shift = 8 * (width - 1 - i)
				}
				want[i] = byte(uint64(v) >> shift)
			}
			got := make([]byte, width)
			encodeUint(got, order, v)
			if string(got) != string(want) {
				t.Errorf("%v width %d: encoded % x, want % x", order, width, got, want)
			}
			mask := uint64(1)<<(8*width) - 1
			if width == 8 {
				mask = ^uint64(0)
			}
			if d := decodeUint(want, order); d != v&mask {
				t.Errorf("%v width %d: decoded %#x, want %#x", order, width, d, v&mask)
			}
		}
	}
}
