package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// TestUnhashedFetchAsksOnlyForItsPage: a cold FETCH carries the faulting
// page's own wants and nothing more. A closure budget of two nodes strands
// partially resident pages all over a small-paged cache; none of their
// missing rows may ride along on another page's FETCH, which would ship
// data a sparse walk never reads.
func TestUnhashedFetchAsksOnlyForItsPage(t *testing.T) {
	var (
		mu     sync.Mutex
		callee *Runtime
		spread []string // one line per FETCH whose wants span pages
		sent   int
	)
	caller, callee := pair(t, func(id uint32, o *Options) {
		o.PageSize, o.ClosureSize = 256, 64
		if id != 2 {
			return
		}
		o.Node = &flakyNode{Node: o.Node, sendHook: func(m wire.Message) error {
			if m.Kind != wire.KindFetch {
				return nil
			}
			p, err := wire.DecodeFetchPayload(m.Payload)
			if err != nil || len(p.Sums) > 0 {
				t.Errorf("a cold session sent a FETCH that is hashed or undecodable: %+v, %v", p, err)
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			sent++
			var pages []uint32
			for _, lp := range p.Wants {
				addr, ok := callee.table.LookupLP(lp)
				if !ok {
					t.Errorf("FETCH want %v has no row", lp)
				}
				pages = append(pages, callee.space.PageOf(addr))
			}
			slices.Sort(pages)
			if pages = slices.Compact(pages); len(pages) > 1 {
				spread = append(spread, fmt.Sprintf("%d wants on pages %v", len(p.Wants), pages))
			}
			return nil
		}}
	})
	registerSumProc(t, callee)
	root := buildTree(t, caller, 7) // 127 nodes
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(7) {
		t.Fatalf("sum = %d, want %d", got, wantSum(7))
	}
	mu.Lock()
	defer mu.Unlock()
	if sent < 5 {
		t.Fatalf("only %d FETCHes sent; the budget was meant to strand pages", sent)
	}
	if len(spread) > 0 {
		t.Errorf("%d of %d FETCHes asked for other pages' rows:\n%s", len(spread), sent, strings.Join(spread, "\n"))
	}
}

// serveHotSetup builds an origin with a fully built tree and returns the
// wants list the serve loop answers.
func serveHotSetup(t testing.TB) (*Runtime, []wire.LongPtr) {
	rt, _ := pair(t, nil)
	root := buildTree(t, rt, 7) // 127 nodes
	return rt, []wire.LongPtr{root.LP}
}

// serveHot runs one serve exactly the way serveFetch does: pooled
// scratch in, closure build, scratch back.
func serveHot(t testing.TB, rt *Runtime, wants []wire.LongPtr) int {
	sc := serveScratchPool.Get().(*serveScratch)
	items, err := rt.buildClosureItems(wants, nil, 1<<20, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(items)
	sc.reset()
	serveScratchPool.Put(sc)
	return n
}

// BenchmarkServeFetchHot measures the origin's serve path: with the
// working set and the encode arena pooled, a serve allocates nothing
// (TestServeFetchHotAllocsReduction holds it to zero).
func BenchmarkServeFetchHot(b *testing.B) {
	rt, wants := serveHotSetup(b)
	serveHot(b, rt, wants) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHot(b, rt, wants)
	}
}

// allocsAndBytes reports what one run of f allocates on average: the
// count, as testing.AllocsPerRun does, and the bytes. Like AllocsPerRun
// it runs f once to warm up, on one processor; the collector is off too,
// so a cycle cannot empty the pools mid-measurement.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestServeFetchHotAllocsReduction is the acceptance check behind the
// benchmark: a serve out of the pooled scratch allocates nothing, not
// even its encode arena (12 to 24 KiB per fault before the arena was
// pooled), where the same build with a fresh working set allocates its
// queue, item slice, seen set and arena.
func TestServeFetchHotAllocsReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt, wants := serveHotSetup(t)
	serveHot(t, rt, wants)
	allocs, bytes := allocsAndBytes(50, func() { serveHot(t, rt, wants) })
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := rt.buildClosureItems(wants, nil, 1<<20, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || bytes != 0 {
		t.Errorf("pooled serve allocates %.1f times, %.0f bytes per serve; want 0 and 0", allocs, bytes)
	}
	t.Logf("pooled serve: %.0f allocs, %.0f B; fresh working set: %.0f allocs", allocs, bytes, fresh)
}

// TestAddrSet checks the closure walk's seen set against a map: aligned
// addresses (the ones the walk sees), the null address, growth far past
// the size reset chose, and a reset that must forget everything while
// keeping the grown storage.
func TestAddrSet(t *testing.T) {
	var s addrSet
	rng := rand.New(rand.NewPCG(1, 2))
	for round, n := range []int{10, 5000, 300} {
		s.reset(4)
		ref := make(map[vmem.VAddr]bool)
		for i := 0; i < n; i++ {
			a := vmem.VAddr(rng.Uint32N(1<<16) * 16)
			if i%97 == 0 {
				a = 0
			}
			if got := s.has(a); got != ref[a] {
				t.Fatalf("round %d: has(%#x) = %v before insert %d, want %v", round, a, got, i, ref[a])
			}
			if !ref[a] {
				s.add(a)
				ref[a] = true
			}
		}
		for a := range ref {
			if !s.has(a) {
				t.Fatalf("round %d: has(%#x) = false after insert", round, a)
			}
		}
		for i := 0; i < 1000; i++ {
			if a := vmem.VAddr(rng.Uint32()); s.has(a) != ref[a] {
				t.Fatalf("round %d: has(%#x) = %v, want %v", round, a, !ref[a], ref[a])
			}
		}
		if n > 1000 && len(s.slots) < 2*len(ref)-2 {
			t.Errorf("round %d: %d slots hold %d addresses: the table did not grow", round, len(s.slots), len(ref))
		}
	}
}

// TestFaultResolvedBeforeHandler: a fault whose page another thread
// releases between vmem's protection check and the handler call is not an
// error. The space's handler is wrapped so the page is completed (for the
// write, also made writable, as a concurrent write fault leaves it) before
// onFault runs. onFault must return nil without fetching, and the access
// must go through (DESIGN §7 bug 15).
func TestFaultResolvedBeforeHandler(t *testing.T) {
	for _, write := range []bool{false, true} {
		name := map[bool]string{false: "read", true: "write"}[write]
		t.Run(name, func(t *testing.T) {
			origin, cl := pair(t, nil)
			root := buildTree(t, origin, 1)
			if err := cl.BeginSession(); err != nil {
				t.Fatal(err)
			}
			v, err := cl.ImportPtr(root.LP)
			if err != nil {
				t.Fatal(err)
			}
			cl.space.SetHandler(func(f vmem.Fault) error {
				cl.space.SetHandler(cl.onFault)
				if err := cl.completePage(cl.Session(), f.Page); err != nil {
					return err
				}
				if write {
					if err := cl.space.MarkDirty(f.Page, true); err != nil {
						return err
					}
					if err := cl.space.SetProt(f.Page, vmem.ProtReadWrite); err != nil {
						return err
					}
				}
				return cl.onFault(f)
			})
			ref, err := cl.Deref(v)
			if err != nil {
				t.Fatal(err)
			}
			if write {
				err = ref.SetInt("data", 0, 42)
			} else {
				_, err = ref.Int("data", 0)
			}
			if err != nil {
				t.Fatalf("%s of a page released under its fault: %v", name, err)
			}
			if d, err := ref.Int("data", 0); err != nil || d != map[bool]int64{false: 1, true: 42}[write] {
				t.Errorf("data = %d, %v after the %s", d, err, name)
			}
			if n := cl.Stats().FetchesSent; n != 1 {
				t.Errorf("%d FETCHes sent, want the 1 that released the page", n)
			}
			if err := cl.EndSession(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
