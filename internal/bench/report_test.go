package bench

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func TestDiffListsDeterministicColumnChanges(t *testing.T) {
	old := []byte(`{"rows":[
		{"figure":"fig4","policy":"smart","ratio":1,"closure_bytes":8192,"messages":44,"wall_sec":0.1},
		{"figure":"scaleout","policy":"smart-enccache","ratio":0,"closure_bytes":8192,"clients":8,"messages":9,"enc_hits":7},
		{"figure":"scaleout","policy":"smart-noenccache","ratio":0,"closure_bytes":8192,"clients":8,"messages":9},
		{"figure":"concurrent","policy":"smart","ratio":0,"closure_bytes":8192,"clients":2,"messages":100,"conc_reads":5},
		{"figure":"recover","policy":"drop","ratio":0,"closure_bytes":8192,"messages":50,"rec_faults":3,"rec_sessions":3}]}`)
	cur := []byte(`{"rows":[
		{"figure":"fig4","policy":"smart","ratio":1,"closure_bytes":8192,"messages":45,"wall_sec":0.2},
		{"figure":"scaleout","policy":"smart-enccache","ratio":0,"closure_bytes":8192,"clients":8,"messages":9},
		{"figure":"concurrent","policy":"smart","ratio":0,"closure_bytes":8192,"clients":2,"messages":140,"conc_reads":6},
		{"figure":"recover","policy":"drop","ratio":0,"closure_bytes":8192,"messages":70,"rec_faults":4,"rec_sessions":3},
		{"figure":"stream","policy":"smart","ratio":0,"closure_bytes":65536,"chunks":26}]}`)
	got, err := Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig4/smart/1.0000/8192/0/0: messages 44 -> 45",
		"scaleout/smart-enccache/0.0000/8192/0/8: enc_hits 7 -> absent",
		"scaleout/smart-noenccache/0.0000/8192/0/8: row only in the old snapshot",
		"concurrent/smart/0.0000/8192/0/2: conc_reads 5 -> 6",
		"stream/smart/0.0000/65536/0/0: row only in the new snapshot",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Diff =\n%q\nwant\n%q", got, want)
	}
}

// TestCheckAppliesDiffsColumnRule pins Check to Diff's rule: a one-unit
// drift fails in a plain row, in a concurrent row's conc_* column and in
// a faulted recover row's rec_sessions, while host columns,
// interleaving-dependent traffic and rows only in the current report
// pass. Two current rows under one key are an error, not a silent shadow.
func TestCheckAppliesDiffsColumnRule(t *testing.T) {
	baseline := Report{Nodes: 1023, Closure: 8192, Rows: []ReportRow{
		{Figure: "fig4", Policy: "smart", Ratio: 1, Closure: 8192, Messages: 44, WallSec: 0.1},
		{Figure: "concurrent", Policy: "smart-concurrent", Ratio: 0.25, Closure: 8192, Clients: 2,
			Messages: 120, ConcReads: 36, ConcCheckSec: 0.004},
		{Figure: "recover", Policy: "smart-recover-drop", Closure: 8192, Messages: 35,
			RecFaults: 10, RecRetries: 14, RecSessions: 3},
	}}
	current := func() Report {
		cur := baseline
		cur.Rows = slices.Clone(baseline.Rows)
		cur.Rows[0].WallSec, cur.Rows[0].AllocsPerOp = 0.2, 999
		cur.Rows[1].Messages, cur.Rows[1].ConcCheckSec = 140, 0.009
		cur.Rows[2].Messages, cur.Rows[2].RecFaults, cur.Rows[2].RecRetries = 70, 11, 20
		cur.Rows = append(cur.Rows, ReportRow{Figure: "abl-chain", Policy: "chain/piggyback", Sum: 16})
		return cur
	}
	if err := Check(baseline, current()); err != nil {
		t.Fatalf("host columns, racing traffic and a new row flagged: %v", err)
	}

	for _, tc := range []struct {
		drift func(*Report)
		want  string
	}{
		{func(r *Report) { r.Rows[0].Messages++ }, "fig4/smart/1.0000/8192/0/0: messages 44 -> 45"},
		{func(r *Report) { r.Rows[1].ConcReads++ }, "concurrent/smart-concurrent/0.2500/8192/0/2: conc_reads 36 -> 37"},
		{func(r *Report) { r.Rows[2].RecSessions-- }, "recover/smart-recover-drop/0.0000/8192/0/0: rec_sessions 3 -> 2"},
	} {
		cur := current()
		tc.drift(&cur)
		err := Check(baseline, cur)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Check = %v, want a drift naming %q", err, tc.want)
		}
	}

	dup := current()
	dup.Rows = append(dup.Rows, dup.Rows[0])
	if err := Check(baseline, dup); err == nil || !strings.Contains(err.Error(), "two rows with key fig4/smart/1.0000/8192/0/0") {
		t.Errorf("Check with a duplicate row key = %v, want an error naming the key", err)
	}
	other := current()
	other.Nodes = 8191
	if err := Check(baseline, other); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Errorf("Check across tree sizes = %v, want a config mismatch", err)
	}
}

// TestCommittedSnapshotKeysUnique reads the committed regression baseline:
// every row key must be unique, or Check would compare one row and
// ignore its twin.
func TestCommittedSnapshotKeysUnique(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_38.json")
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := Diff(raw, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("snapshot differs from itself: %q", diffs)
	}
}
