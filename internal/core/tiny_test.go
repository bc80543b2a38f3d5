package core

import "testing"

// tinySession sets up the smallest smart session there is, on a persistent
// pair: a one-node tree in the caller's heap and the callee's sumTree,
// which faults once on it. The returned op rewrites the node, then runs
// BeginSession → Call → EndSession and checks the sum.
func tinySession(t testing.TB) func(i int64) {
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 1)
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	return func(i int64) {
		if err := ref.SetInt("data", 0, i); err != nil {
			t.Fatal(err)
		}
		if err := caller.BeginSession(); err != nil {
			t.Fatal(err)
		}
		res, err := caller.Call(callee.ID(), "sumTree", []Value{root})
		if err != nil {
			t.Fatal(err)
		}
		if err := caller.EndSession(); err != nil {
			t.Fatal(err)
		}
		if got := res[0].Int64(); got != i {
			t.Fatalf("sum = %d, want %d", got, i)
		}
	}
}

// tinySessionAllocs is the measured allocation count of one tiny session,
// summed over both runtimes. It was 39 while every CALL started a fresh
// goroutine and every session re-made its participant and alloc-batch
// maps, 25 while the origin decoded each FETCH's wants into a fresh
// vector, 23 while the CALL and the RETURN were each assembled as a
// wire.CallPayload before being encoded, 21 while a FETCH's wants were
// copied out of the offer scratch as well as encoded, and 20 while the
// FETCH request was encoded into a fresh buffer and, on arrival, its wants
// decoded from a copy of it.
const tinySessionAllocs = 18

// TestTinySessionAllocs pins what the smallest session allocates: its
// fixed per-session cost in every layer, with no bulk to hide it.
func TestTinySessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	op := tinySession(t)
	for i := range 5 {
		op(int64(i))
	}
	i := int64(5)
	got := testing.AllocsPerRun(200, func() {
		op(i)
		i++
	})
	if got > tinySessionAllocs {
		t.Errorf("a tiny session allocates %.0f times; want at most %d", got, tinySessionAllocs)
	}
}

// BenchmarkTinySession times one tiny session on a persistent pair. Its
// per-op cost must not depend on b.N: a session that cost more the more
// sessions ran before it would show here as ns/op growing with -benchtime.
func BenchmarkTinySession(b *testing.B) {
	op := tinySession(b)
	for i := range 5 {
		op(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		op(int64(i))
	}
}
