// Command benchmark is the repository's wall-clock benchmark: five named
// workloads, each one closed-loop client running RPC sessions against one
// callee, measured from outside the runtime. See README.md beside this
// file for what every workload and metric means.
//
//	bash benchmark/run.sh                     every workload, every metric
//	bash benchmark/run.sh --workload tree_read_local --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// rounds is how many slices a pass is run in. A persistent workload sets
// up once per round, which is where its set-up samples come from; with
// several workloads the rounds interleave them, so a drift in host speed
// lands on all of them rather than on one.
const rounds = 4

// maxUnattributedPct fails a traced tree workload whose budget leaves
// more than this share of the op to no layer.
const maxUnattributedPct = 15

type options struct {
	workload     string
	seed         int64
	seconds      float64
	traceSeconds float64
	trace        int
	nodes        int
	ops          int
	out          string
	traceOut     string
	specPath     string
	compare      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print its result as one JSON line (driver mode)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the mutation subsets and values; the runtime sees only the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured wall time per workload, set-up between ops included")
	flag.Float64Var(&o.traceSeconds, "trace-seconds", 4, "measured wall time of each workload's traced pass (all-workloads mode)")
	flag.IntVar(&o.trace, "trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.nodes, "nodes", 32767, "tree size, 2^k-1")
	flag.IntVar(&o.ops, "ops", 0, "run this many ops per round instead of for a fixed time")
	flag.StringVar(&o.out, "out", "", "append one JSON line per workload result to this file (input of -compare)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's retained spans as Chrome trace-event JSON")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark's declaration, read for its bounds by -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: benchmark -compare A B")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		err = runCompare(os.Stdout, o.specPath, flag.Args())
	case o.workload != "":
		err = runDriver(os.Stdout, &o)
	default:
		err = runAll(os.Stdout, &o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runPasses runs every pass in rounds, interleaved, each for its own
// budget in total (or ops ops per round).
func runPasses(passes []*pass, ops int) error {
	for r := 0; r < rounds; r++ {
		for _, ps := range passes {
			err := ps.round(ps.budget/rounds, ops)
			ps.endRound(r == rounds-1)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// resultOf verifies a pair of passes and collects their metrics: the
// end-to-end ones from the untraced pass and, when traced is set, the
// per-layer ones of source A.
func resultOf(un, traced *pass, visitNs float64) result {
	res := result{Attempted: un.attempted, Failed: un.failed, Metrics: metrics{}}
	un.endToEndMetrics(res.Metrics)
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		tracedMetrics(res.Metrics, un, traced, visitNs)
	}
	res.Correct = res.Failed == 0 && un.ops() > 0
	return res
}

// tracedMetrics reports the source-A per-layer metrics of one workload.
func tracedMetrics(ms metrics, un, tr *pass, visitNs float64) {
	r, n := tr.rec, tr.ops()
	ms.set("core.visit_resident_ns", median(r.residentP50))
	ms.set("core.fault_client_self_us", median(r.faultSelf)/1e3)
	ms.set("core.serve_fetch_us", median(r.serve[famFetch])/1e3)
	ms.set("core.serve_validate_us", median(r.serve[famValidate])/1e3)
	ratio := 0.0
	if looks := tr.stats.EncCacheHits + tr.stats.EncCacheMisses; looks > 0 {
		ratio = float64(tr.stats.EncCacheHits) / float64(looks)
	}
	ms.set("core.enc_cache_hit_ratio", ratio)
	ms.set("core.serve_invalidate_ms", median(r.serve[famInvalidate])/1e6)
	ms.set("core.end_session_ms", median(r.endNs)/1e6)
	ms.set("core.begin_session_us", median(r.beginNs)/1e3)
	ms.set("core.call_ms", median(r.callNs)/1e6)
	ms.set("core.handler_ms", median(r.handlerNs)/1e6)
	ms.set("core.call_overhead_us", median(r.overheadNs)/1e3)
	ms.set("transport.fetch_rtt_self_us", median(r.rttSelf[famFetch])/1e3)
	ms.set("transport.validate_rtt_self_us", median(r.rttSelf[famValidate])/1e3)
	ms.set("transport.send_us", median(r.sendNs)/1e3)
	ms.set("transport.msgs_per_op", perOp(tr.msgs, n))
	ms.set("transport.payload_kb_per_op", perOp(r.payloadBytes, n)/1024)
	for _, fam := range []int{famCall, famFetch, famValidate, famInvalidate, famWriteBack} {
		ms.set("transport.msgs_per_op."+famNames[fam], perOp(r.famMsgs[fam], n))
	}
	ms.set("model_ms_per_op", perOp(tr.modelNs, n)/1e6)

	s := &tr.stats
	ms.set("core.faults_per_op", perOp(s.Faults, n))
	ms.set("core.fetches_per_op", perOp(s.FetchesSent, n))
	ms.set("core.items_installed_per_op", perOp(s.ItemsInstalled, n))
	ms.set("core.kb_installed_per_op", perOp(s.BytesInstalled, n)/1024)
	ms.set("core.coh_kb_per_op", perOp(s.CohItemBytes, n)/1024)
	ms.set("core.coh_delta_items_per_op", perOp(s.CohDeltaItems, n))
	ms.set("core.coh_items_skipped_per_op", perOp(s.CohItemsSkipped, n))
	ms.set("core.revalidate_hits_per_op", perOp(s.CohRevalidateHits, n))
	ms.set("core.revalidate_misses_per_op", perOp(s.CohRevalidateMisses, n))
	ms.set("core.revalidate_kb_per_op", perOp(s.CohRevalidateBytes, n)/1024)
	ms.set("core.retries_per_op", perOp(s.Retries, n))
	ms.set("core.stale_reply_drops_per_op", perOp(s.StaleReplyDrops, n))

	overhead := 0.0
	if base := median(un.opNs); base > 0 {
		overhead = 100 * (median(tr.opNs)/base - 1)
	}
	_, _, unattributed := r.budget()
	ms.set("harness.trace_overhead_pct", overhead)
	ms.set("harness.unattributed_pct", unattributed)
	ms.set("harness.visit_overhead_ns", visitNs)
	ms.set("harness.gc_cycles_per_op", perOp(un.mem.gcCycles, un.ops()))
	ms.set("harness.gc_pause_us_per_op", perOp(un.mem.pauseNs, un.ops())/1e3)
	ms.set("harness.op_ms_p90", percentile(un.opNs, 90)/1e6)
	ms.set("harness.fault_us_p99", percentile(un.probe.faultNs, 99)/1e3)
}

// checkBudget fails a traced tree workload whose budget does not hold
// together. The tiny workload is exempt: its op is a few dozen
// microseconds, of which the decorators' own locks are a visible share.
func checkBudget(tr *pass) error {
	if _, _, un := tr.rec.budget(); !tr.w.tiny && tr.ops() > 0 && un > maxUnattributedPct {
		return fmt.Errorf("%s: %.1f%% of the traced op is attributed to no layer (limit %d%%)", tr.w.name, un, maxUnattributedPct)
	}
	return nil
}

// keep removes from ms every metric not named in table.
func keep(ms metrics, tables ...[][2]string) metrics {
	out := metrics{}
	for _, table := range tables {
		for _, d := range table {
			if m, ok := ms[d[0]]; ok {
				out[d[0]] = m
			}
		}
	}
	return out
}

// measureOne runs one workload's untraced pass and, when traced is set,
// its traced pass beside it, each for budget: rounds of the two alternate,
// so the overhead figure compares neighbours in time.
func measureOne(wl *workload, o *options, traced bool, budget time.Duration) (un, tr *pass, err error) {
	un = newPass(wl, o.nodes, o.seed, false)
	un.budget = budget
	passes := []*pass{un}
	if traced {
		tr = newPass(wl, o.nodes, o.seed, true)
		tr.budget = budget
		passes = append(passes, tr)
	}
	return un, tr, runPasses(passes, o.ops)
}

// runDriver is the driver's contract: one workload, one seed, one JSON
// object on the last line of standard output.
func runDriver(w io.Writer, o *options) error {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	var res result
	var un *pass
	if o.trace == 0 {
		if un, _, err = measureOne(wl, o, false, seconds(o.seconds)); err != nil {
			return err
		}
		res = resultOf(un, nil, 0)
	} else {
		// The two passes share 80% of the run; the layer drivers take most
		// of what is left.
		var tr *pass
		if un, tr, err = measureOne(wl, o, true, seconds(0.4*o.seconds)); err != nil {
			return err
		}
		visitNs, err := visitOverheadNs()
		if err != nil {
			return err
		}
		res = resultOf(un, tr, visitNs)
		if err := runLayerDrivers(res.Metrics, seconds(0.15*o.seconds), o.seed); err != nil {
			return err
		}
		res.Metrics = keep(res.Metrics, perLayerTraced, perLayerDrivers)
		printBudget(os.Stderr, wl.name, tr.rec)
		if o.traceOut != "" {
			if err := writeChromeTrace(o.traceOut, tr.rec.chromeEvents(1, wl.name)); err != nil {
				return err
			}
		}
		if err := checkBudget(tr); err != nil {
			return err
		}
	}
	if un.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", wl.name, un.firstErr)
	}
	if o.out != "" {
		if err := appendRecord(o.out, record{Workload: wl.name, Seed: o.seed, Result: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", wl.name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs the five workloads in one process, the untraced and the
// traced pass of each beside each other in every round, then the layer
// drivers; then prints every metric by name and unit.
func runAll(w io.Writer, o *options) error {
	var un, tr, all []*pass
	for i := range workloads {
		un = append(un, newPass(&workloads[i], o.nodes, o.seed, false))
		tr = append(tr, newPass(&workloads[i], o.nodes, o.seed, true))
		un[i].budget, tr[i].budget = seconds(o.seconds), seconds(o.traceSeconds)
		all = append(all, un[i], tr[i])
	}
	if err := runPasses(all, o.ops); err != nil {
		return err
	}
	visitNs, err := visitOverheadNs()
	if err != nil {
		return err
	}
	layers := metrics{}
	if err := runLayerDrivers(layers, 3*time.Second, o.seed); err != nil {
		return err
	}

	var failures []error
	var events []chromeEvent
	for i := range workloads {
		res := resultOf(un[i], tr[i], visitNs)
		name := workloads[i].name
		fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed (untraced %d ops, traced %d ops)\n",
			name, res.Attempted, res.Failed, un[i].ops(), tr[i].ops())
		printMetrics(w, res.Metrics, endToEnd, perLayerTraced)
		printBudget(w, name, tr[i].rec)
		for _, ps := range []*pass{un[i], tr[i]} {
			if ps.firstErr != nil {
				failures = append(failures, fmt.Errorf("%s: %d ops failed, first: %w", name, ps.failed, ps.firstErr))
			}
		}
		if err := checkBudget(tr[i]); err != nil {
			failures = append(failures, err)
		}
		if floor := opFloor(&workloads[i]); o.ops == 0 && un[i].ops() < floor {
			fmt.Fprintf(w, "  note: %d timed ops is under this workload's floor of %d; lengthen -seconds\n", un[i].ops(), floor)
		}
		if o.out != "" {
			res.Metrics = keep(res.Metrics, endToEnd)
			if err := appendRecord(o.out, record{Workload: name, Seed: o.seed, Result: res}); err != nil {
				return err
			}
		}
		events = append(events, tr[i].rec.chromeEvents(i+1, name)...)
	}
	fmt.Fprintf(w, "\n== layer drivers (once per run)\n")
	printMetrics(w, layers, perLayerDrivers)
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, events); err != nil {
			return err
		}
	}
	return errors.Join(failures...)
}

// opFloor is the fewest timed ops a full-length run should see.
func opFloor(w *workload) int {
	if w.tiny {
		return 100000
	}
	return 50
}

func printMetrics(w io.Writer, ms metrics, tables ...[][2]string) {
	for _, table := range tables {
		for _, d := range table {
			if m, ok := ms[d[0]]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %s\n", d[0], m.Value, m.Unit)
			}
		}
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
