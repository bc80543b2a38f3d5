package bench

import (
	"testing"
	"time"

	"smartrpc/internal/netsim"
)

// TestPipelineDemandVsPrefetch is the tentpole acceptance check at test
// scale: on the pointer-chase workload, the speculative prefetcher must
// cut the blocking demand-fetch round trips by at least 30% at an equal
// closure budget, without changing the answer.
func TestPipelineDemandVsPrefetch(t *testing.T) {
	base := PipelineConfig{ChainNodes: 2047, ClosureSize: 8192}
	demand, err := RunPipeline(base)
	if err != nil {
		t.Fatalf("demand run: %v", err)
	}
	withPf := base
	withPf.Prefetch = true
	withPf.SyncPrefetch = true
	pf, err := RunPipeline(withPf)
	if err != nil {
		t.Fatalf("prefetch run: %v", err)
	}
	if demand.Sum != pf.Sum {
		t.Fatalf("checksums differ: demand %d, prefetch %d", demand.Sum, pf.Sum)
	}
	if demand.PfIssued != 0 || demand.BlockingFetches != demand.Fetches {
		t.Fatalf("demand run shows speculation: %+v", demand)
	}
	if pf.PfIssued == 0 {
		t.Fatalf("prefetch run issued no speculative fetches: %+v", pf)
	}
	if pf.BlockingFetches > demand.BlockingFetches*7/10 {
		t.Fatalf("blocking fetches %d of %d: less than a 30%% reduction",
			pf.BlockingFetches, demand.BlockingFetches)
	}
	// Total protocol work must not balloon: speculation replaces demand
	// fetches one for one on a linear chase.
	if pf.Fetches != demand.Fetches {
		t.Errorf("total fetches moved: demand %d, prefetch %d", demand.Fetches, pf.Fetches)
	}
}

// TestPipelineDeterministic re-runs the snapshot configuration and
// requires identical modeled outputs: the BENCH_38 pipeline rows depend on it.
func TestPipelineDeterministic(t *testing.T) {
	cfg := PipelineConfig{
		ChainNodes:   2047,
		ClosureSize:  8192,
		Prefetch:     true,
		SyncPrefetch: true,
		Model:        netsim.Ethernet10SPARC(),
	}
	first, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.WallTime = 0 // host-dependent; everything else is modeled
	for i := 0; i < 3; i++ {
		again, err := RunPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again.WallTime = 0
		if again != first {
			t.Fatalf("run %d diverged:\n  %+v\n  %+v", i+2, first, again)
		}
	}
}

// TestPipelineConcurrentClients drives several clients with asynchronous
// speculation against one server (the -race build makes this the
// concurrency check). Checksums are validated inside RunPipeline; here
// the aggregate counters must add up. The link delay gives the
// background fetchers room to actually get ahead of the walkers — on an
// instantaneous network the demand fault always wins the race and every
// speculation degenerates into a join.
func TestPipelineConcurrentClients(t *testing.T) {
	res, err := RunPipeline(PipelineConfig{
		ChainNodes:  1023,
		Clients:     4,
		ClosureSize: 4096,
		Prefetch:    true,
		LinkDelay:   300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetches == 0 || res.BlockingFetches > res.Fetches {
		t.Fatalf("implausible fetch counters: %+v", res)
	}
	if res.PfIssued+res.PfCoalesced == 0 {
		t.Errorf("no speculation observed across 4 clients: %+v", res)
	}
}
