package faultsim

import (
	"math/rand"
	"testing"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// TestWarmHashedFetchFaultsDegradeToRefetch is the targeted oracle for the
// warm-cache revalidation exchange: when every hashed FETCH or every reply
// to one is lost, corrupted, or delayed, the faulting space must degrade
// to a full refetch and return current data — never a stale read from its
// demoted baseline, and never a stuck session. The ground heap is
// mutated between sessions precisely so a wrongly-promoted baseline
// would change the observable sum.
//
// The Match hook confines faults to the revalidation exchange itself; the
// plain refetch the client falls back to stays reliable, so recovery is
// required to be transparent (no typed error escapes the call).
func TestWarmHashedFetchFaultsDegradeToRefetch(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		fault Fault
	}{
		{"drop-request", Config{DropPermille: 1000, Match: hashedFetch}, FaultDrop},
		{"drop-reply", Config{DropPermille: 1000, Match: repliesToHashedFetches()}, FaultDrop},
		{"corrupt-request", Config{CorruptPermille: 1000, Match: hashedFetch}, FaultCorrupt},
		{"corrupt-reply", Config{CorruptPermille: 1000, Match: repliesToHashedFetches()}, FaultCorrupt},
		{"delay-reply", Config{DelayPermille: 1000, Match: repliesToHashedFetches()}, FaultDelay},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 7
			net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { net.Close() })
			chaos := New(net, tc.cfg)
			chaos.SetEnabled(false) // session 1 warms the cache cleanly

			reg := registry()
			newRT := func(id uint32, timeout time.Duration) *core.Runtime {
				node, err := chaos.Attach(id)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := core.New(core.Options{
					ID:              id,
					Node:            node,
					Registry:        reg,
					Policy:          core.PolicySmart,
					Concurrent:      true,
					CallTimeout:     timeout,
					CheckInvariants: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { rt.Close() })
				if err := registerProcs(rt, 2); err != nil {
					t.Fatal(err)
				}
				return rt
			}
			// The worker's revalidation round trip must expire (and degrade)
			// well inside the ground's outer call deadline — per-runtime
			// timeouts make that split possible.
			ground := newRT(1, 5*time.Second)
			worker := newRT(2, 100*time.Millisecond)

			rng := rand.New(rand.NewSource(42))
			root, model, err := buildTree(ground, rng, 4)
			if err != nil {
				t.Fatal(err)
			}

			call := func(label string) int64 {
				t.Helper()
				if err := ground.BeginSession(); err != nil {
					t.Fatalf("%s: begin: %v", label, err)
				}
				res, err := ground.Call(2, "sum", []core.Value{root})
				if err != nil {
					t.Fatalf("%s: sum: %v", label, err)
				}
				if err := ground.EndSession(); err != nil {
					t.Fatalf("%s: end: %v", label, err)
				}
				return res[0].Int64()
			}

			if got, want := call("session 1"), model.sum(); got != want {
				t.Fatalf("session 1 sum = %d, want %d", got, want)
			}

			// Mutate the ground heap locally (no frames, no faults) so a
			// stale baseline is observable as a wrong sum.
			if err := incTree(ground, root, 5); err != nil {
				t.Fatal(err)
			}
			model.inc(5)

			chaos.SetEnabled(true)
			got := call("session 2 (revalidation faulted)")
			chaos.SetEnabled(false)
			if chaos.Count(tc.fault) == 0 {
				t.Fatalf("no %v fault injected — the oracle never engaged", tc.fault)
			}
			if want := model.sum(); got != want {
				t.Fatalf("stale read through faulted revalidation: sum = %d, want %d", got, want)
			}
			if hits := worker.Stats().CohRevalidateHits; hits != 0 {
				t.Fatalf("faulted revalidation produced %d hits, want 0 (must degrade)", hits)
			}

			// A fault-free third session must re-warm and token-validate
			// from the refetched baseline — degradation is per-session,
			// not a permanent disable.
			if got, want := call("session 3"), model.sum(); got != want {
				t.Fatalf("session 3 sum = %d, want %d", got, want)
			}
			if hits := worker.Stats().CohRevalidateHits; hits == 0 {
				t.Fatal("no revalidation hits after recovery — warm cache did not re-warm")
			}

			for i, rt := range []*core.Runtime{ground, worker} {
				if err := rt.CheckIdleInvariants(); err != nil {
					t.Errorf("space %d not idle-clean: %v", i+1, err)
				}
			}
			if err := core.CheckNetworkInvariants(nil, []*core.Runtime{ground, worker}); err != nil {
				t.Errorf("network invariants: %v", err)
			}
		})
	}
}

// hashedFetch is a Match hook for every hashed FETCH request.
func hashedFetch(m wire.Message) bool {
	if m.Kind != wire.KindFetch {
		return false
	}
	p, err := wire.DecodeFetchPayload(m.Payload)
	return err == nil && len(p.Sums) > 0
}

// repliesToHashedFetches returns a Match hook for the reply frames to
// hashed FETCHes: it notes each hashed request's sender and Seq as it
// passes and matches the reply frames carrying that Seq back.
func repliesToHashedFetches() func(wire.Message) bool {
	type exchange struct {
		requester uint32
		seq       uint64
	}
	asked := make(map[exchange]bool)
	return func(m wire.Message) bool {
		if hashedFetch(m) {
			asked[exchange{m.From, m.Seq}] = true
			return false
		}
		return m.Kind.IsReply() && asked[exchange{m.To, m.Seq}]
	}
}

// TestChaosKindFilterConfinesFaults pins the OnlyKinds contract targeted
// oracles depend on: non-matching kinds pass through untouched even at
// 1000 permille.
func TestChaosKindFilterConfinesFaults(t *testing.T) {
	cfg := Config{Seed: 1, DropPermille: 1000, OnlyKinds: []wire.Kind{wire.KindFetch}}
	c, a, b := chaosPair(t, cfg)
	bc := pump(b)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := a.Send(frame(2, seq, nil)); err != nil { // KindCall frames
			t.Fatal(err)
		}
	}
	if got := countArrivals(bc, 100*time.Millisecond); got != 5 {
		t.Errorf("%d of 5 non-target frames arrived, want all 5", got)
	}
	if err := a.Send(wire.Message{Kind: wire.KindFetch, Session: 1, Seq: 6, To: 2}); err != nil {
		t.Fatal(err)
	}
	if got := countArrivals(bc, 100*time.Millisecond); got != 0 {
		t.Errorf("target-kind frame crossed a total drop")
	}
	if c.Count(FaultDrop) != 1 {
		t.Errorf("recorded %d drops, want 1", c.Count(FaultDrop))
	}
}
