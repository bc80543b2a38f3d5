package bench

import (
	"testing"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
)

// deltaCfg is the fig6-style repeated-crossing update workload the issue
// pins: several full searches in one session with small in-place edits,
// so the modified data set re-crosses the boundary on every call and
// return.
func deltaCfg(noDelta bool) TreeConfig {
	return TreeConfig{
		Policy:           core.PolicySmart,
		Nodes:            255,
		ClosureSize:      2048,
		AccessRatio:      0.5,
		Update:           true,
		Repeats:          6,
		Model:            netsim.Ethernet10SPARC(),
		DisableDeltaShip: noDelta,
	}
}

// TestDeltaShipReducesCohBytes pins the acceptance criterion: on the
// repeated-crossing workload, delta shipping must move at least 40%
// fewer coherency-path bytes than the paper's full-shipping protocol,
// without changing the computed result or the message count.
func TestDeltaShipReducesCohBytes(t *testing.T) {
	ds, err := RunTree(deltaCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := RunTree(deltaCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Visited != fs.Visited || ds.Sum != fs.Sum {
		t.Fatalf("results diverge: delta visited/sum %d/%d, fullship %d/%d",
			ds.Visited, ds.Sum, fs.Visited, fs.Sum)
	}
	if ds.Messages != fs.Messages || ds.Crossings != fs.Crossings {
		t.Errorf("delta shipping changed the message flow: %d msgs/%d crossings vs %d/%d",
			ds.Messages, ds.Crossings, fs.Messages, fs.Crossings)
	}
	if fs.CohItemBytes == 0 {
		t.Fatal("full shipping moved no coherency bytes; workload does not exercise the path")
	}
	reduction := 1 - float64(ds.CohItemBytes)/float64(fs.CohItemBytes)
	if reduction < 0.40 {
		t.Errorf("coherency-path bytes reduced by %.1f%% (%d -> %d), want >= 40%%",
			100*reduction, fs.CohItemBytes, ds.CohItemBytes)
	}
	// The wire total must shrink by exactly the item-payload saving's
	// share (item bodies are the only payload delta shipping touches).
	if ds.Bytes >= fs.Bytes {
		t.Errorf("total bytes on the wire did not shrink: %d vs %d", ds.Bytes, fs.Bytes)
	}
	if ds.CohItemsSkipped == 0 || ds.CohDeltaItems == 0 {
		t.Errorf("expected both tokens and deltas on this workload: skipped=%d deltas=%d",
			ds.CohItemsSkipped, ds.CohDeltaItems)
	}
}

// TestDeltaShipAblationRows sanity-checks the ablation driver that backs
// the srpcbench report.
func TestDeltaShipAblationRows(t *testing.T) {
	rows, err := DeltaShipAblation(netsim.Ethernet10SPARC(), 255, 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].CohBytes >= rows[1].CohBytes {
		t.Errorf("delta-ship coh bytes %d not below full-ship %d", rows[0].CohBytes, rows[1].CohBytes)
	}
}

// TestDeltaShipLeavesModeledFiguresUnchanged pins the other half of the
// acceptance criterion: the paper's modeled figures must not move.
// Read-only workloads (Fig. 4/6) have no
// modified data set, so every modeled output is identical with delta
// shipping on or off; update figures (Fig. 7, the coherence ablations)
// pin DisableDeltaShip and are full-shipping by construction.
func TestDeltaShipLeavesModeledFiguresUnchanged(t *testing.T) {
	model := netsim.Ethernet10SPARC()
	for _, ratio := range []float64{0.25, 1.0} {
		var got [2]TreeResult
		for i, noDelta := range []bool{false, true} {
			res, err := RunTree(TreeConfig{
				Policy:           core.PolicySmart,
				Nodes:            255,
				ClosureSize:      2048,
				AccessRatio:      ratio,
				Model:            model,
				DisableDeltaShip: noDelta,
			})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = res
		}
		if got[0].Time != got[1].Time || got[0].Messages != got[1].Messages ||
			got[0].Bytes != got[1].Bytes || got[0].Callbacks != got[1].Callbacks ||
			got[0].Faults != got[1].Faults {
			t.Errorf("ratio %v: read-only modeled outputs differ with delta shipping: %+v vs %+v",
				ratio, got[0], got[1])
		}
	}
}
