package bench

import (
	"slices"
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
