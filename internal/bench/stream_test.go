package bench

import (
	"sort"
	"testing"
	"time"

	"smartrpc/internal/netsim"
)

// TestStreamTTFA is the tentpole acceptance check: on a transfer big
// enough to stream, the wall-clock time-to-first-access with chunked
// replies must come in under 25% of the monolithic-reply ablation's —
// the faulting access waits for chunk 0, not for the whole closure to
// be encoded, shipped, and installed. Medians over several runs damp
// scheduler noise; the expected gap is an order of magnitude, so the
// 25% bar has real margin.
func TestStreamTTFA(t *testing.T) {
	nodes := 32767
	if testing.Short() {
		nodes = 8191
	}
	median := func(chunk int) time.Duration {
		const runs = 5
		ttfas := make([]time.Duration, 0, runs)
		for i := 0; i < runs; i++ {
			res, err := RunStream(StreamConfig{Nodes: nodes, StreamChunkBytes: chunk})
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if chunk > 0 && res.Chunks == 0 {
				t.Fatalf("chunk %d: no chunk frames on the wire", chunk)
			}
			if chunk < 0 && res.Chunks != 0 {
				t.Fatalf("ablation put %d chunk frames on the wire", res.Chunks)
			}
			ttfas = append(ttfas, res.TTFA)
		}
		sort.Slice(ttfas, func(i, j int) bool { return ttfas[i] < ttfas[j] })
		return ttfas[len(ttfas)/2]
	}
	streamed := median(16 << 10)
	ablated := median(-1)
	t.Logf("ttfa streamed %v, monolithic %v", streamed, ablated)
	if streamed*4 >= ablated {
		t.Fatalf("streamed ttfa %v not under 25%% of monolithic %v", streamed, ablated)
	}
}

// TestStreamDeterministic re-runs a snapshot configuration and requires
// identical modeled outputs: the BENCH_38 stream rows depend on it.
func TestStreamDeterministic(t *testing.T) {
	cfg := StreamConfig{
		Nodes:            8191,
		StreamChunkBytes: 16 << 10,
		Model:            netsim.Ethernet10SPARC(),
	}
	first, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Fetches != 1 {
		t.Fatalf("chain did not ship on one fetch: %+v", first)
	}
	if first.Faults != 1 {
		t.Fatalf("verification walk faulted after the drain: %+v", first)
	}
	first.WallTime, first.TTFA = 0, 0 // host-dependent; the rest is modeled
	for i := 0; i < 3; i++ {
		again, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again.WallTime, again.TTFA = 0, 0
		if again != first {
			t.Fatalf("run %d diverged:\n  %+v\n  %+v", i+2, first, again)
		}
	}
}

// TestStreamChunkSweep checks the chunk-size knob does what it says:
// smaller chunks mean more frames, and every sweep point moves the same
// item bytes to the same checksum.
func TestStreamChunkSweep(t *testing.T) {
	var prevChunks uint64
	var prevSum int64
	for i, chunk := range []int{16 << 10, 64 << 10, 256 << 10} {
		res, err := RunStream(StreamConfig{Nodes: 8191, StreamChunkBytes: chunk})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if res.Chunks == 0 {
			t.Fatalf("chunk %d: reply did not stream", chunk)
		}
		if i > 0 {
			if res.Chunks >= prevChunks {
				t.Errorf("chunk %d produced %d frames, not fewer than %d", chunk, res.Chunks, prevChunks)
			}
			if res.Sum != prevSum {
				t.Errorf("chunk %d checksum %d, previous %d", chunk, res.Sum, prevSum)
			}
		}
		prevChunks, prevSum = res.Chunks, res.Sum
	}
}
