package bench

import (
	"strings"
	"testing"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/swizzle"
)

// sumFirstN is the expected checksum for visiting the first n nodes in
// preorder of a tree whose data is the preorder index starting at 1.
func sumFirstN(n int64) int64 { return n * (n + 1) / 2 }

func TestRunTreeCorrectAcrossPolicies(t *testing.T) {
	for _, pol := range []core.Policy{core.PolicySmart, core.PolicyEager, core.PolicyLazy} {
		res, err := RunTree(TreeConfig{Policy: pol, Nodes: 127, AccessRatio: 1.0})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Visited != 127 || res.Sum != sumFirstN(127) {
			t.Errorf("%v: visited %d sum %d, want 127 / %d", pol, res.Visited, res.Sum, sumFirstN(127))
		}
	}
}

func TestRunTreePartialAccess(t *testing.T) {
	res, err := RunTree(TreeConfig{Nodes: 127, AccessRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 63 {
		t.Errorf("visited %d, want 63", res.Visited)
	}
	// Depth-first preorder: the first 63 visits are preorder indices 1..63.
	if res.Sum != sumFirstN(63) {
		t.Errorf("sum %d, want %d", res.Sum, sumFirstN(63))
	}
}

func TestRunTreeZeroRatio(t *testing.T) {
	res, err := RunTree(TreeConfig{Nodes: 127, AccessRatio: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 0 || res.Sum != 0 {
		t.Errorf("zero ratio visited %d sum %d", res.Visited, res.Sum)
	}
	if res.Callbacks != 0 {
		t.Errorf("zero ratio issued %d callbacks", res.Callbacks)
	}
}

func TestRunTreeUpdateWritesBack(t *testing.T) {
	res, err := RunTree(TreeConfig{Nodes: 63, AccessRatio: 1.0, Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 63 {
		t.Errorf("visited %d", res.Visited)
	}
}

func TestRunTreeRejectsBadConfig(t *testing.T) {
	if _, err := RunTree(TreeConfig{Nodes: 100}); err == nil {
		t.Error("non 2^k-1 tree size accepted")
	}
	if _, err := RunTree(TreeConfig{Nodes: 127, AccessRatio: 1.5}); err == nil {
		t.Error("ratio > 1 accepted")
	}
}

func TestCallbackOrderingLazyVsSmart(t *testing.T) {
	lazy, err := RunTree(TreeConfig{Policy: core.PolicyLazy, Nodes: 255, AccessRatio: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	smart, err := RunTree(TreeConfig{Policy: core.PolicySmart, Nodes: 255, AccessRatio: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Callbacks != 255 {
		t.Errorf("lazy callbacks = %d, want 255 (one per visited node)", lazy.Callbacks)
	}
	if smart.Callbacks >= lazy.Callbacks {
		t.Errorf("smart callbacks (%d) not below lazy (%d)", smart.Callbacks, lazy.Callbacks)
	}
	eager, err := RunTree(TreeConfig{Policy: core.PolicyEager, Nodes: 255, AccessRatio: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if eager.Callbacks != 0 {
		t.Errorf("eager callbacks = %d, want 0", eager.Callbacks)
	}
}

func TestEagerTimeFlatAcrossRatios(t *testing.T) {
	model := netsim.Ethernet10SPARC()
	t0, err := RunTree(TreeConfig{Policy: core.PolicyEager, Nodes: 1023, AccessRatio: 0, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := RunTree(TreeConfig{Policy: core.PolicyEager, Nodes: 1023, AccessRatio: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := t0.Time, t1.Time
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi-lo)/float64(hi) > 0.05 {
		t.Errorf("eager time not flat: ratio0 %v vs ratio1 %v", t0.Time, t1.Time)
	}
}

func TestSmartBeatsLazyOnFullScan(t *testing.T) {
	model := netsim.Ethernet10SPARC()
	lazy, err := RunTree(TreeConfig{Policy: core.PolicyLazy, Nodes: 2047, AccessRatio: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	smart, err := RunTree(TreeConfig{Policy: core.PolicySmart, Nodes: 2047, AccessRatio: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if smart.Time >= lazy.Time {
		t.Errorf("smart (%v) not faster than lazy (%v) at full access", smart.Time, lazy.Time)
	}
}

func TestSmartBeatsEagerOnSmallAccess(t *testing.T) {
	model := netsim.Ethernet10SPARC()
	eager, err := RunTree(TreeConfig{Policy: core.PolicyEager, Nodes: 8191, AccessRatio: 0.1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	smart, err := RunTree(TreeConfig{Policy: core.PolicySmart, Nodes: 8191, AccessRatio: 0.1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if smart.Time >= eager.Time {
		t.Errorf("smart (%v) not faster than eager (%v) at 10%% access", smart.Time, eager.Time)
	}
}

func TestFig4SmallShape(t *testing.T) {
	rows, err := Fig4(netsim.Ethernet10SPARC(), 1023, 2048, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lazy grows with ratio; smart at ratio 0 is cheapest of the three.
	if !(rows[0].Lazy < rows[1].Lazy && rows[1].Lazy < rows[2].Lazy) {
		t.Errorf("lazy not increasing: %v %v %v", rows[0].Lazy, rows[1].Lazy, rows[2].Lazy)
	}
	if rows[0].Smart >= rows[0].Eager {
		t.Errorf("at ratio 0 smart (%v) not below eager (%v)", rows[0].Smart, rows[0].Eager)
	}
}

func TestFig5SmallShape(t *testing.T) {
	rows, err := Fig5(netsim.Model{}, 1023, 2048, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Smart >= r.Lazy {
			t.Errorf("ratio %v: smart callbacks %d >= lazy %d", r.Ratio, r.Smart, r.Lazy)
		}
	}
}

func TestFig6SmallRuns(t *testing.T) {
	cells, err := Fig6(netsim.Ethernet10SPARC(), []int{1023}, []int{512, 8192}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Time <= 0 {
			t.Errorf("cell %+v has non-positive time", c)
		}
	}
}

func TestFig7SmallShape(t *testing.T) {
	rows, err := Fig7(netsim.Ethernet10SPARC(), 1023, 2048, []float64{0.25, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Updated <= r.NotUpdated {
			t.Errorf("ratio %v: updated (%v) not above not-updated (%v)", r.Ratio, r.Updated, r.NotUpdated)
		}
	}
	// Update cost scales with the update ratio.
	if !(rows[0].Updated < rows[2].Updated) {
		t.Errorf("updated time not increasing: %v .. %v", rows[0].Updated, rows[2].Updated)
	}
}

func TestTable1Rendering(t *testing.T) {
	s, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "long pointer") || !strings.Contains(s, "(A") && !strings.Contains(s, "A (") {
		t.Errorf("table rendering missing headers/rows:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Errorf("table has %d lines, want header + 2 rows:\n%s", len(lines), s)
	}
}

func TestAblations(t *testing.T) {
	model := netsim.Ethernet10SPARC()
	if rows, err := PageSizeAblation(model, 1023, []int{512, 4096}); err != nil || len(rows) != 2 {
		t.Errorf("page size ablation: %v, %d rows", err, len(rows))
	}
	if rows, err := TraversalAblation(model, 1023, 2048); err != nil || len(rows) != 2 {
		t.Errorf("traversal ablation: %v, %d rows", err, len(rows))
	}
	if rows, err := CoherenceAblation(model, 1023, 2048); err != nil || len(rows) != 2 {
		t.Errorf("coherence ablation: %v, %d rows", err, len(rows))
	}
	if rows, err := BatchingAblation(model, 100); err != nil || len(rows) != 2 {
		t.Errorf("batching ablation: %v, %d rows", err, len(rows))
	} else if rows[1].Time <= rows[0].Time {
		t.Errorf("per-op alloc (%v) not slower than batched (%v)", rows[1].Time, rows[0].Time)
	}
}

func TestAllocPolicyAblation(t *testing.T) {
	rows, err := AllocPolicyAblation(netsim.Ethernet10SPARC(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Mixed packing needs at least as many fetch messages (two origins per
	// page), typically more.
	if rows[1].Callbacks < rows[0].Callbacks {
		t.Errorf("mixed (%d callbacks) below per-origin (%d)", rows[1].Callbacks, rows[0].Callbacks)
	}
}

func TestTwoOriginSearchCorrect(t *testing.T) {
	res, err := RunTwoOriginSearch(netsim.Model{}, 50, swizzle.PolicyPerOrigin)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 50 || res.Sum != sumFirstN(50) {
		t.Errorf("two-origin search visited %d sum %d", res.Visited, res.Sum)
	}
}

func TestPathWalkCorrect(t *testing.T) {
	res, err := RunPathWalk(netsim.Model{}, 8, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 8 {
		t.Errorf("path visited %d nodes, want 8", res.Visited)
	}
}

func TestClosureHintAblation(t *testing.T) {
	rows, err := ClosureHintAblation(netsim.Ethernet10SPARC(), 10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Bytes >= rows[0].Bytes {
		t.Errorf("hinted closure moved %d bytes, unhinted %d", rows[1].Bytes, rows[0].Bytes)
	}
}

func TestChainUpdateCoherence(t *testing.T) {
	const hops = 5
	// The paper's piggyback protocol keeps every space's view current: the
	// counter reaches 2×hops.
	res, err := RunChainUpdate(netsim.Model{}, hops, core.CoherencePiggyback)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 2*hops {
		t.Errorf("piggyback: final counter %d, want %d", res.Sum, 2*hops)
	}
	// The naive write-back ablation demonstrates WHY: sending dirty data
	// home does not refresh the cached copies other spaces already hold,
	// so repeated hops operate on stale values and the counter falls
	// short. This is the incoherence §3.4's circulating protocol prevents.
	res, err = RunChainUpdate(netsim.Model{}, hops, core.CoherenceWriteBack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum >= 2*hops {
		t.Errorf("write-back ablation: final counter %d; expected it to lag behind %d (stale caches)",
			res.Sum, 2*hops)
	}
}

func TestChainCoherenceAblationMessages(t *testing.T) {
	rows, err := ChainCoherenceAblation(netsim.Ethernet10SPARC(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Messages <= rows[0].Messages {
		t.Errorf("write-back chain used %d messages, piggyback %d; naive protocol should cost more",
			rows[1].Messages, rows[0].Messages)
	}
}

func TestHashLookupCorrectAcrossPolicies(t *testing.T) {
	for _, pol := range []core.Policy{core.PolicySmart, core.PolicyEager, core.PolicyLazy} {
		res, err := RunHashLookup(HashConfig{Policy: pol, Entries: 512, Lookups: 8})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Visited != 8 {
			t.Errorf("%v: hits = %d, want 8", pol, res.Visited)
		}
		// Values are 3×key for keys 1, 1+64, ..., 1+7×64.
		var want int64
		for i := int64(0); i < 8; i++ {
			want += 3 * (i*64 + 1)
		}
		if res.Sum != want {
			t.Errorf("%v: sum = %d, want %d", pol, res.Sum, want)
		}
	}
}

func TestHashWorkloadLazyBeatsEager(t *testing.T) {
	rows, err := HashWorkload(netsim.Ethernet10SPARC(), 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	eager, lazy, smart := rows[0], rows[1], rows[2]
	// The paper's §4.1 remark: sparse retrieval favors laziness. Eager
	// ships the whole table and must be slowest by a wide margin.
	if lazy.Time >= eager.Time {
		t.Errorf("lazy (%v) not faster than eager (%v) on sparse retrieval", lazy.Time, eager.Time)
	}
	if smart.Time >= eager.Time {
		t.Errorf("smart (%v) not faster than eager (%v) on sparse retrieval", smart.Time, eager.Time)
	}
	if eager.Bytes < 5*lazy.Bytes {
		t.Errorf("eager moved %d bytes vs lazy %d; expected >5x blowup", eager.Bytes, lazy.Bytes)
	}
}

// TestHashWorkloadProposedBeatsLazy pins §4.1's remark at the gated
// abl-hash configuration (16 384 entries, 16 lookups): on sparse
// retrieval the proposed method beats fully lazy in modeled time. It lost
// (1.040 s against 0.742 s) while a cold FETCH also asked for the missing
// rows of other partially resident pages, which a sparse walk never reads.
func TestHashWorkloadProposedBeatsLazy(t *testing.T) {
	rows, err := HashWorkload(netsim.Ethernet10SPARC(), 16384, 16)
	if err != nil {
		t.Fatal(err)
	}
	lazy, smart := rows[1], rows[2]
	if smart.Time >= lazy.Time {
		t.Errorf("%s (%v, %d messages, %d B) not faster than %s (%v, %d messages, %d B)",
			smart.Name, smart.Time, smart.Messages, smart.Bytes, lazy.Name, lazy.Time, lazy.Messages, lazy.Bytes)
	}
}
