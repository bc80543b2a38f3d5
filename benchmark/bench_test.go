package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smallRun is every workload at a size that keeps the whole file under
// ten seconds: 1023 nodes, one op per round.
var smallRun = options{seed: 1, nodes: 1023, ops: 1}

// measureAll runs both passes of every workload and the layer drivers
// once, the way a full run does.
func measureAll(t *testing.T) map[string]result {
	t.Helper()
	out := make(map[string]result)
	for i := range workloads {
		wl := &workloads[i]
		un, tr, err := measureOne(wl, &smallRun, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		visitNs, err := visitOverheadNs()
		if err != nil {
			t.Fatal(err)
		}
		res := resultOf(un, tr, visitNs)
		if !res.Correct || res.Failed != 0 || res.Attempted != 2*rounds {
			t.Fatalf("%s: correct=%v, %d of %d ops failed: %v", wl.name, res.Correct, res.Failed, res.Attempted, un.firstErr)
		}
		if err := checkBudget(tr); err != nil {
			t.Error(err)
		}
		out[wl.name] = res
	}
	return out
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	layers := metrics{}
	if err := runLayerDrivers(layers, 300*time.Millisecond, smallRun.seed); err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for name, res := range measureAll(t) {
		emitted := metrics{}
		for k, m := range res.Metrics {
			emitted[k] = m
		}
		for k, m := range layers {
			if _, dup := emitted[k]; dup {
				t.Errorf("%s: %s is emitted by the traced pass and by a layer driver", name, k)
			}
			emitted[k] = m
		}
		declared := append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...)
		for _, d := range declared {
			m, ok := emitted[d.Name]
			switch {
			case !nameOK.MatchString(d.Name):
				t.Errorf("declared name %q has characters outside [A-Za-z0-9_.-]", d.Name)
			case !ok:
				t.Errorf("%s: declared metric %s is not emitted", name, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s is emitted in %q, declared in %q", name, d.Name, m.Unit, d.Unit)
			}
			delete(emitted, d.Name)
		}
		for k := range emitted {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", name, k)
		}
		for _, d := range sp.EndToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", name, d.Name, res.Metrics[d.Name].Value)
			}
		}
	}
}

func TestCountsRepeatAcrossSameSeedRuns(t *testing.T) {
	a, b := measureAll(t), measureAll(t)
	for name := range a {
		for k, m := range a[name].Metrics {
			exact := k == "model_ms_per_op" || strings.HasPrefix(k, "transport.msgs_per_op") ||
				k == "transport.payload_kb_per_op" || (strings.HasPrefix(k, "core.") && strings.HasSuffix(k, "_per_op"))
			if exact && m.Value != b[name].Metrics[k].Value {
				t.Errorf("%s: %s read %v, then %v with the same seed", name, k, m.Value, b[name].Metrics[k].Value)
			}
		}
	}
	// The workloads differ where the issue says they must.
	if f := a["tree_warm_local"].Metrics["core.fetches_per_op"].Value; f != 0 {
		t.Errorf("tree_warm_local fetched %v times per op after warm-up, want 0", f)
	}
	if m := a["tiny_session_local"].Metrics["transport.msgs_per_op"].Value; m != 6 {
		t.Errorf("tiny_session_local moved %v messages per op, want 6", m)
	}
	if c := a["tree_update_local"].Metrics["core.coh_kb_per_op"].Value; c <= 0 {
		t.Errorf("tree_update_local shipped %v KiB of modified data per op, want some", c)
	}
}

func TestWrongChecksumIsAFailedOp(t *testing.T) {
	ps := newPass(&workloads[0], smallRun.nodes, smallRun.seed, false)
	ps.probe.corrupt = true
	if err := ps.round(0, 1); err != nil {
		t.Fatal(err)
	}
	ps.endRound(true)
	if ps.attempted != 1 || ps.failed != 1 || ps.ops() != 0 {
		t.Fatalf("attempted %d, failed %d, verified %d; want 1, 1, 0", ps.attempted, ps.failed, ps.ops())
	}
	if res := resultOf(ps, nil, 0); res.Correct {
		t.Fatal("a run whose only op returned a wrong checksum reported correct")
	}
	if n := len(ps.probe.faultNs); n != 0 {
		t.Errorf("a failed op left %d fault samples behind", n)
	}
}

func TestUpdateComesHome(t *testing.T) {
	wl, err := findWorkload("tree_update_local")
	if err != nil {
		t.Fatal(err)
	}
	ps := newPass(wl, smallRun.nodes, smallRun.seed, false)
	p, err := ps.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer ps.endRound(false)
	if _, err := ps.session(p, true); err != nil {
		t.Fatal(err)
	}
	if err := ps.checkHome(p); err != nil {
		t.Fatal(err)
	}
	// The check has teeth: an expectation the heap does not meet fails it.
	p.vals[len(p.vals)/2]++
	if ps.checkHome(p) == nil {
		t.Fatal("checkHome accepted a heap that differs from the expectation")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within the bound", []float64{100, 101, 99}, []float64{104, 105, 103}, "lower", "ok"},
		{"slower than the bound", []float64{100, 101, 99}, []float64{112, 113, 111}, "lower", "regressed"},
		{"throughput fell", []float64{100, 101, 99}, []float64{88, 89, 87}, "higher", "regressed"},
		{"throughput rose", []float64{100, 101, 99}, []float64{120, 121, 119}, "higher", "ok"},
		{"base too noisy to say", []float64{80, 100, 125}, []float64{101, 102, 103}, "lower", "unresolved"},
		{"noisy base, clear win", []float64{80, 100, 125}, []float64{60, 61, 62}, "lower", "ok"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.better, 0.08); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareReadsOutFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, f := range []struct {
		path string
		ms   float64
	}{{a, 100}, {a, 102}, {b, 150}} {
		res := result{Correct: true, Attempted: 1, Metrics: metrics{}}
		res.Metrics.set("op_ms_p50", f.ms)
		must(t, appendRecord(f.path, record{Workload: "tree_read_local", Seed: 1, Result: res}))
	}
	var out bytes.Buffer
	err := runCompare(&out, filepath.Join("..", "BENCHMARK.json"), []string{a, b})
	if err == nil || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("a 1.5x slower op compared as: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := runCompare(&out, filepath.Join("..", "BENCHMARK.json"), []string{a, a}); err != nil {
		t.Fatalf("A against itself: %v\n%s", err, out.String())
	}
}
