package bench

import (
	"testing"
)

// TestWarmSessionsReadOnlyShipsAlmostNothing pins the headline acceptance
// criterion: at mutation ratio 0.0, every session after the first must
// ship at least 80% fewer coherency/data item-body bytes than the cold
// start (here they ship zero — every datum revalidates with a token).
func TestWarmSessionsReadOnlyShipsAlmostNothing(t *testing.T) {
	res, err := RunWarmSessions(WarmConfig{Nodes: 1023, Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	s1 := res.Sessions[0]
	if s1.ItemBodyBytes == 0 {
		t.Fatal("cold session shipped no item bytes — workload broken")
	}
	want := sumFirstN(1023)
	for i, s := range res.Sessions {
		if s.Sum != want {
			t.Errorf("session %d sum = %d, want %d", i+1, s.Sum, want)
		}
		if i == 0 {
			continue
		}
		if s.ItemBodyBytes > s1.ItemBodyBytes/5 {
			t.Errorf("session %d shipped %d item bytes, want <= 20%% of cold start (%d)",
				i+1, s.ItemBodyBytes, s1.ItemBodyBytes/5)
		}
		if s.RevalidateHits == 0 {
			t.Errorf("session %d: no revalidation hits", i+1)
		}
		if s.RevalidateBytes != 0 {
			t.Errorf("session %d: %d revalidation bytes on an unmutated tree, want 0 (all tokens)",
				i+1, s.RevalidateBytes)
		}
	}
}

// TestWarmSessionsMutationShipsOnlyChanges: with a fraction of nodes
// mutated between sessions, warm sessions must revalidate with a mix of
// tokens and misses, return the updated checksum, and still ship far
// fewer item bytes than the cold start.
func TestWarmSessionsMutationShipsOnlyChanges(t *testing.T) {
	const nodes, ratio = 1023, 0.25
	res, err := RunWarmSessions(WarmConfig{Nodes: nodes, Sessions: 3, MutationRatio: ratio})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the expected checksum by replaying the deterministic
	// mutation schedule: each selected node gains +1 per round.
	want := sumFirstN(nodes)
	threshold := uint64(ratio * float64(uint64(1)<<32))
	for i, s := range res.Sessions {
		if i > 0 {
			for idx := uint64(1); idx <= nodes; idx++ {
				if warmMix(idx, uint64(i))&0xFFFFFFFF < threshold {
					want++
				}
			}
		}
		if s.Sum != want {
			t.Fatalf("session %d sum = %d, want %d (stale data served?)", i+1, s.Sum, want)
		}
		if i == 0 {
			continue
		}
		if s.RevalidateHits == 0 || s.RevalidateMisses == 0 {
			t.Errorf("session %d: hits=%d misses=%d, want a mix at ratio %.2f",
				i+1, s.RevalidateHits, s.RevalidateMisses, ratio)
		}
		if s.ItemBodyBytes >= res.Sessions[0].ItemBodyBytes {
			t.Errorf("session %d shipped %d item bytes, not below cold start %d",
				i+1, s.ItemBodyBytes, res.Sessions[0].ItemBodyBytes)
		}
	}
}

// TestWarmSessionsAblationPaysColdStartEachTime: with the warm cache
// disabled, every session re-ships the full working set and nothing
// revalidates — the behavior the warm cache exists to remove.
func TestWarmSessionsAblationPaysColdStartEachTime(t *testing.T) {
	res, err := RunWarmSessions(WarmConfig{Nodes: 1023, Sessions: 3, DisableWarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	s1 := res.Sessions[0]
	for i, s := range res.Sessions {
		if s.RevalidateHits != 0 || s.RevalidateMisses != 0 || s.RevalidateBytes != 0 {
			t.Errorf("session %d: revalidation traffic with the warm cache disabled", i+1)
		}
		if s.ItemBodyBytes != s1.ItemBodyBytes {
			t.Errorf("session %d shipped %d item bytes, want the full cold start %d every time",
				i+1, s.ItemBodyBytes, s1.ItemBodyBytes)
		}
	}
}

// TestMutateTreeDeterministic: the same (ratio, salt) selects the same
// node set, and the count matches the checksum replay used above.
func TestMutateTreeDeterministic(t *testing.T) {
	const nodes, ratio = 255, 0.5
	threshold := uint64(ratio * float64(uint64(1)<<32))
	wantCount := 0
	for idx := uint64(1); idx <= nodes; idx++ {
		if warmMix(idx, 1)&0xFFFFFFFF < threshold {
			wantCount++
		}
	}
	res, err := RunWarmSessions(WarmConfig{Nodes: nodes, Sessions: 2, MutationRatio: ratio})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Sessions[1].Sum-res.Sessions[0].Sum, int64(wantCount); got != want {
		t.Errorf("mutation round changed sum by %d, want %d selected nodes", got, want)
	}
}
