package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"smartrpc/internal/vmem"
)

// registerIncProc registers "inc" on callee: it adds one to every node of
// the tree it is passed and returns the sum it read before the writes.
func registerIncProc(t testing.TB, callee *Runtime) {
	t.Helper()
	err := callee.Register("inc", func(ctx *Ctx, args []Value) ([]Value, error) {
		rt := ctx.Runtime()
		var walk func(v Value) (int64, error)
		walk = func(v Value) (int64, error) {
			if v.IsNullPtr() {
				return 0, nil
			}
			ref, err := rt.Deref(v)
			if err != nil {
				return 0, err
			}
			d, err := ref.Int("data", 0)
			if err != nil {
				return 0, err
			}
			if err := ref.SetInt("data", 0, d+1); err != nil {
				return 0, err
			}
			sum := d
			for _, f := range []string{"left", "right"} {
				c, err := ref.Ptr(f, 0)
				if err != nil {
					return 0, err
				}
				s, err := walk(c)
				if err != nil {
					return 0, err
				}
				sum += s
			}
			return sum, nil
		}
		sum, err := walk(args[0])
		return []Value{Int64Value(sum)}, err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// settledHeap returns the live Go heap once it has stopped moving. One
// collection is not enough: what a sync.Pool held survives one cycle in
// its victim cache, and the goroutines that served the last session let
// go of what they hold a moment after its reply.
func settledHeap() uint64 {
	var ms runtime.MemStats
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if i > 0 && max(ms.HeapAlloc, prev)-min(ms.HeapAlloc, prev) < 1024 {
			break
		}
		prev = ms.HeapAlloc
		time.Sleep(time.Millisecond)
	}
	return ms.HeapAlloc
}

// TestSessionsDoNotGrowTheRuntime is the unbounded-growth oracle for the
// cache region. A persistent pair runs 2 000 sessions in each policy; in
// each, the callee reads and rewrites the caller's 63-node tree on 256-byte
// pages. From session 10 on, on both spaces, the cache pages reserved, the
// table rows held after EndSession and the pages the session-end walks
// visit per session stay exactly what they were at session 10, and the
// settled Go heap at the end stays within 1.05x of session 10's. Every
// figure is a counter, never the clock. The policies whose sessions end in
// a hard invalidation (smart-nowarm, eager) are the ones a cache region
// that never reuses a page grows under.
func TestSessionsDoNotGrowTheRuntime(t *testing.T) {
	sessions := 2000
	if raceEnabled {
		sessions = 300
	}
	const settle, levels = 10, 6
	nodes := int64(1)<<levels - 1
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
			caller, callee := pair(t, func(_ uint32, o *Options) {
				o.PageSize = 256
				c.mut(o)
			})
			registerIncProc(t, callee)
			root := buildTree(t, caller, levels)
			rts := []*Runtime{caller, callee}
			type figures struct {
				reserved, rows int
				walked         uint64
			}
			var base [2]figures
			var heap0 uint64
			var walked [2]uint64
			for k := 0; k < sessions; k++ {
				if got, want := sessionCall(t, caller, 2, "inc", root)[0].Int64(), wantSum(levels)+int64(k)*nodes; got != want {
					t.Fatalf("session %d sum = %d, want %d", k, got, want)
				}
				for i, rt := range rts {
					u := rt.Space().CacheUsage()
					f := figures{u.Reserved, rt.Table().Len(), u.Walked - walked[i]}
					walked[i] = u.Walked
					switch {
					case k == settle:
						base[i] = f
					case k > settle && f != base[i]:
						t.Fatalf("session %d, space %d: %d pages reserved, %d rows, %d pages walked; at session %d: %d, %d, %d",
							k, rt.ID(), f.reserved, f.rows, f.walked, settle, base[i].reserved, base[i].rows, base[i].walked)
					}
				}
				if k == settle {
					heap0 = settledHeap()
				}
			}
			if heap := settledHeap(); float64(heap) > 1.05*float64(heap0) {
				t.Errorf("settled heap %d B after %d sessions, %d B at session %d: over 1.05x", heap, sessions, heap0, settle)
			}
			t.Logf("per space: %+v", base)
		})
	}
}

// TestStalePointerFailsTyped: under a hard-invalidating policy, a pointer
// into the cache kept past its session fails with vmem.ErrStalePage for
// the quarantine's length instead of the generic fault error, and the
// invariant checker reports a table row left on a retired page.
func TestStalePointerFailsTyped(t *testing.T) {
	caller, callee := pair(t, func(_ uint32, o *Options) { o.DisableWarmCache = true })
	registerSumProc(t, callee)
	var kept Value
	err := callee.Register("keep", func(ctx *Ctx, args []Value) ([]Value, error) {
		kept = args[0]
		_, err := sumTree(ctx.Runtime(), args[0])
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "keep", root)
	for k := 0; k < vmem.Quarantine; k++ {
		ref, err := callee.Deref(kept)
		if err == nil {
			_, err = ref.Int("data", 0)
		}
		if !errors.Is(err, vmem.ErrStalePage) {
			t.Fatalf("dereference %d sessions after the pointer's = %v, want vmem.ErrStalePage", k+1, err)
		}
		sessionCall(t, caller, 2, "sumTree", root)
	}

	// Retiring the pages under live rows mid-session is the aliasing the
	// checker must name.
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(2, "sumTree", []Value{root}); err != nil {
		t.Fatal(err)
	}
	if err := callee.CheckLocalInvariants(); err != nil {
		t.Fatalf("clean callee fails the local check: %v", err)
	}
	callee.Space().InvalidateCache()
	err = callee.CheckLocalInvariants()
	if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "retired") {
		t.Errorf("rows on retired pages not caught, err = %v", err)
	}
	caller.AbortSession()
	callee.AbortSession()
}
