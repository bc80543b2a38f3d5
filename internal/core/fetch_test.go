package core

import (
	"testing"

	"smartrpc/internal/wire"
)

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
	items, err := rt.buildClosureItems(wants, nil, 0, 1<<20, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(items)
	sc.reset()
	serveScratchPool.Put(sc)
	return n
}

// BenchmarkServeFetchHot measures the origin's serve path: with the
// working set pooled, a serve allocates its encode arena and nothing per
// object (TestServeFetchHotAllocsReduction holds it to three).
func BenchmarkServeFetchHot(b *testing.B) {
	rt, wants := serveHotSetup(b)
	serveHot(b, rt, wants) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHot(b, rt, wants)
	}
}

// TestServeFetchHotAllocsReduction is the acceptance check behind the
// benchmark: a serve out of the pooled scratch allocates at most three
// times (the arena and its growth), and less than half of what the same
// build costs with a fresh working set.
func TestServeFetchHotAllocsReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt, wants := serveHotSetup(t)
	serveHot(t, rt, wants)
	pooled := testing.AllocsPerRun(50, func() { serveHot(t, rt, wants) })
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := rt.buildClosureItems(wants, nil, 0, 1<<20, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if pooled > 3 {
		t.Errorf("pooled serve allocates %.1f/op, want <= 3", pooled)
	}
	if pooled > fresh/2 {
		t.Errorf("pooled serve allocates %.1f/op vs %.1f/op with a fresh working set; want >= 50%% reduction", pooled, fresh)
	}
}
