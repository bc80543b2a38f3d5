package bench

import "testing"

// TestScaleoutHitRate checks the warm-cache claim the scale-out rounds
// rest on: with the origin unchanged, every client's second walk
// revalidates what it already holds, so a two-round run sends exactly the
// FETCHes of a one-round run and only VALIDATE traffic on top.
func TestScaleoutHitRate(t *testing.T) {
	one, err := RunScaleout(ScaleoutConfig{Nodes: 255, Clients: 8, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunScaleout(ScaleoutConfig{Nodes: 255, Clients: 8, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if one.Fetches == 0 {
		t.Fatal("degenerate run: no FETCH sent")
	}
	if two.Fetches != one.Fetches {
		t.Fatalf("two rounds sent %d FETCHes, one round %d: round 2 refetched", two.Fetches, one.Fetches)
	}
	if two.Messages <= one.Messages || two.Bytes >= 2*one.Bytes {
		t.Fatalf("round 2 traffic: %d msgs / %d bytes after %d / %d for round 1; want revalidation only",
			two.Messages, two.Bytes, one.Messages, one.Bytes)
	}
}

// TestScaleoutMutation checks that a mutation sweep keeps the checksum
// oracle honest (RunScaleout fails internally on any stale value) and
// that the mutated nodes really are re-shipped in round 2.
func TestScaleoutMutation(t *testing.T) {
	ro, err := RunScaleout(ScaleoutConfig{Nodes: 255, Clients: 4, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	mut, err := RunScaleout(ScaleoutConfig{Nodes: 255, Clients: 4, Rounds: 2, MutationRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Sum <= ro.Sum {
		t.Fatalf("mutating run checksum %d not above read-only checksum %d", mut.Sum, ro.Sum)
	}
	if mut.Bytes <= ro.Bytes {
		t.Fatalf("mutating run shipped %d bytes, read-only %d: changed values cost nothing",
			mut.Bytes, ro.Bytes)
	}
}
