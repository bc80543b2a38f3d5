// Command srpcbench regenerates the paper's evaluation: every figure of
// §4 plus the design-choice ablations listed in DESIGN.md.
//
// Usage:
//
//	srpcbench -exp all
//	srpcbench -exp fig4 -nodes 32767 -closure 8192
//	srpcbench -exp fig6 -repeats 10
//	srpcbench -exp table1
//	srpcbench -exp ablations
//
// Timing is virtual (deterministic), produced by the netsim cost model
// calibrated to the paper's testbed: SPARCstation (28.5 MIPS) on 10 Mbps
// Ethernet with TCP_NODELAY.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"smartrpc/internal/bench"
	"smartrpc/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "srpcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("srpcbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|table1|ablations|warm|pipeline|scaleout|concurrent|stream|recover|all")
	nodes := fs.Int("nodes", 32767, "tree size (2^k - 1 nodes)")
	closure := fs.Int("closure", 8192, "closure size in bytes")
	repeats := fs.Int("repeats", 10, "repeated searches for fig6")
	csvOut := fs.Bool("csv", false, "emit figure data as CSV instead of tables")
	jsonOut := fs.Bool("json", false, "run the regression suite and emit a JSON report (srpcbench -json > BENCH_<n>.json)")
	runs := fs.Int("runs", 5, "measured repetitions per point in -json mode")
	checkFile := fs.String("check", "", "compare the regression suite's deterministic modeled columns against a committed BENCH_<n>.json snapshot; exit nonzero on any drift")
	diffOld := fs.String("diff", "", "list, column by column, where the snapshot named here differs from the one named as the argument (srpcbench -diff OLD.json NEW.json); runs nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diffOld != "" {
		return diffSnapshots(*diffOld, fs.Arg(0))
	}
	csv = *csvOut
	model := netsim.Ethernet10SPARC()
	if *checkFile != "" {
		return checkAgainst(model, *checkFile)
	}
	if *jsonOut {
		return emitJSON(model, *nodes, *closure, *runs)
	}

	runOne := func(name string) error {
		switch name {
		case "fig4":
			return fig4(model, *nodes, *closure)
		case "fig5":
			return fig5(model, *nodes, *closure)
		case "fig6":
			return fig6(model, *repeats)
		case "fig7":
			return fig7(model, *nodes, *closure)
		case "table1":
			return table1()
		case "ablations":
			return ablations(model)
		case "warm":
			return warm(model, *nodes, *closure)
		case "pipeline":
			return pipeline(model, *nodes, *closure)
		case "scaleout":
			return scaleout(model, *nodes, *closure)
		case "concurrent":
			return concurrent(*nodes, *closure)
		case "stream":
			return stream(model, *nodes)
		case "recover":
			return recoverExp(model, *closure)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "ablations", "warm", "pipeline", "scaleout", "concurrent", "stream", "recover"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}

// csv switches figure output to comma-separated series for plotting.
var csv bool

// emitJSON runs the benchmark-regression suite and writes the report to
// stdout. Redirect into a BENCH_<n>.json snapshot and diff snapshots to
// catch regressions: modeled columns must match exactly, wall/allocation
// columns within noise.
func emitJSON(model netsim.Model, nodes, closure, runs int) error {
	rep, err := bench.BuildReport(model, nodes, closure, runs)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// diffSnapshots prints every deterministic column in which two committed
// snapshots differ: the evidence a re-baseline's write-up quotes.
func diffSnapshots(oldPath, newPath string) error {
	oldRaw, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newRaw, err := os.ReadFile(newPath)
	if err != nil {
		return err
	}
	lines, err := bench.Diff(oldRaw, newRaw)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("srpcbench: %d differences between %s and %s\n", len(lines), oldPath, newPath)
	return nil
}

// checkAgainst rebuilds the regression suite at the baseline's
// configuration and fails if any deterministic modeled column moved. A
// single measured run suffices: the modeled outputs are identical across
// runs by construction, and the host-dependent columns are not compared.
func checkAgainst(model netsim.Model, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline bench.Report
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	cur, err := bench.BuildReport(model, baseline.Nodes, baseline.Closure, 1)
	if err != nil {
		return err
	}
	if err := bench.Check(baseline, cur); err != nil {
		return fmt.Errorf("against %s: %w", path, err)
	}
	fmt.Printf("srpcbench: modeled columns match %s (%d rows, schema %d)\n", path, len(baseline.Rows), baseline.Schema)
	return nil
}

func sec(d time.Duration) float64 { return d.Seconds() }

func fig4(model netsim.Model, nodes, closure int) error {
	rows, err := bench.Fig4(model, nodes, closure, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig4.ratio,eager_s,lazy_s,smart_s")
		for _, r := range rows {
			fmt.Printf("%.2f,%.6f,%.6f,%.6f\n", r.Ratio, sec(r.Eager), sec(r.Lazy), sec(r.Smart))
		}
		return nil
	}
	fmt.Printf("\n== Figure 4: processing time (s) vs access ratio ==\n")
	fmt.Printf("   tree %d nodes, closure %d bytes\n", nodes, closure)
	fmt.Printf("%-8s %-12s %-12s %-12s\n", "ratio", "fully-eager", "fully-lazy", "proposed")
	for _, r := range rows {
		fmt.Printf("%-8.2f %-12.3f %-12.3f %-12.3f\n", r.Ratio, sec(r.Eager), sec(r.Lazy), sec(r.Smart))
	}
	return nil
}

func fig5(model netsim.Model, nodes, closure int) error {
	rows, err := bench.Fig5(model, nodes, closure, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig5.ratio,lazy_callbacks,smart_callbacks")
		for _, r := range rows {
			fmt.Printf("%.2f,%d,%d\n", r.Ratio, r.Lazy, r.Smart)
		}
		return nil
	}
	fmt.Printf("\n== Figure 5: number of callbacks vs access ratio ==\n")
	fmt.Printf("   tree %d nodes, closure %d bytes\n", nodes, closure)
	fmt.Printf("%-8s %-12s %-12s\n", "ratio", "fully-lazy", "proposed")
	for _, r := range rows {
		fmt.Printf("%-8.2f %-12d %-12d\n", r.Ratio, r.Lazy, r.Smart)
	}
	return nil
}

func fig6(model netsim.Model, repeats int) error {
	cells, err := bench.Fig6(model, nil, nil, repeats)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig6.nodes,closure_bytes,time_s")
		for _, c := range cells {
			fmt.Printf("%d,%d,%.6f\n", c.Nodes, c.Closure, sec(c.Time))
		}
		return nil
	}
	fmt.Printf("\n== Figure 6: processing time (s) vs closure size (%d repeated searches) ==\n", repeats)
	fmt.Printf("%-14s", "closure(KB)")
	for _, n := range bench.DefaultTreeSizes {
		fmt.Printf(" %-14s", fmt.Sprintf("%d nodes", n))
	}
	fmt.Println()
	for _, cs := range bench.DefaultClosureSizes {
		fmt.Printf("%-14.1f", float64(cs)/1024)
		for _, n := range bench.DefaultTreeSizes {
			for _, c := range cells {
				if c.Nodes == n && c.Closure == cs {
					fmt.Printf(" %-14.3f", sec(c.Time))
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func fig7(model netsim.Model, nodes, closure int) error {
	rows, err := bench.Fig7(model, nodes, closure, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig7.ratio,updated_s,not_updated_s")
		for _, r := range rows {
			fmt.Printf("%.2f,%.6f,%.6f\n", r.Ratio, sec(r.Updated), sec(r.NotUpdated))
		}
		return nil
	}
	fmt.Printf("\n== Figure 7: update performance (s) vs update ratio ==\n")
	fmt.Printf("   tree %d nodes, closure %d bytes\n", nodes, closure)
	fmt.Printf("%-8s %-12s %-12s %-8s\n", "ratio", "updated", "not-updated", "×")
	for _, r := range rows {
		ratio := 0.0
		if r.NotUpdated > 0 {
			ratio = float64(r.Updated) / float64(r.NotUpdated)
		}
		fmt.Printf("%-8.2f %-12.3f %-12.3f %-8.2f\n", r.Ratio, sec(r.Updated), sec(r.NotUpdated), ratio)
	}
	return nil
}

// warm prints the repeated-session workload: K back-to-back sessions
// over the same pair of spaces, with a fraction of the tree mutated at
// the origin between sessions. Session 1 is the cold start; the later
// rows show what the warm cross-session cache actually re-ships.
func warm(model netsim.Model, nodes, closure int) error {
	points := bench.WarmPoints(model, nodes, closure)
	if csv {
		fmt.Println("warm.config,mutation_ratio,session,time_s,item_body_bytes,reval_hits,reval_misses,reval_bytes,messages,net_bytes")
	} else {
		fmt.Printf("\n== Warm cross-session cache: %d sessions, tree %d nodes, closure %d bytes ==\n",
			points[0].Cfg.Sessions, nodes, closure)
	}
	for _, pt := range points {
		res, err := bench.RunWarmSessions(pt.Cfg)
		if err != nil {
			return err
		}
		if !csv {
			fmt.Printf("\n-- %s, mutation ratio %.2f --\n", pt.Name, pt.Cfg.MutationRatio)
			fmt.Printf("%-9s %-10s %-16s %-11s %-13s %-12s %-10s %-12s\n",
				"session", "time(s)", "item-body-bytes", "reval-hits", "reval-misses", "reval-bytes", "messages", "net-bytes")
		}
		cold := res.Sessions[0].ItemBodyBytes
		for i, s := range res.Sessions {
			if csv {
				fmt.Printf("%s,%.2f,%d,%.6f,%d,%d,%d,%d,%d,%d\n",
					pt.Name, pt.Cfg.MutationRatio, i+1, sec(s.Time), s.ItemBodyBytes,
					s.RevalidateHits, s.RevalidateMisses, s.RevalidateBytes, s.Messages, s.Bytes)
				continue
			}
			note := ""
			if i > 0 && cold > 0 {
				note = fmt.Sprintf("  (%.1f%% of cold)", 100*float64(s.ItemBodyBytes)/float64(cold))
			}
			fmt.Printf("%-9d %-10.3f %-16d %-11d %-13d %-12d %-10d %-12d%s\n",
				i+1, sec(s.Time), s.ItemBodyBytes, s.RevalidateHits, s.RevalidateMisses,
				s.RevalidateBytes, s.Messages, s.Bytes, note)
		}
	}
	return nil
}

// pipeline prints the asynchronous fetch pipeline workload: a pointer
// chase built to defeat the eager closure (every shipment ends at a cold
// page). The first block is the deterministic comparison (one client,
// synchronous speculation) whose rows the BENCH_38 snapshot checks; the
// second is a wall-clock demonstration on a real 1 ms link delay, where
// asynchronous speculation physically overlaps fetch round trips with the
// application's own chewing.
func pipeline(model netsim.Model, nodes, closure int) error {
	if csv {
		fmt.Println("pipeline.config,time_s,messages,net_bytes,fetches,blocking_fetches,pf_issued")
	} else {
		fmt.Printf("\n== Fetch pipeline: pointer chase, chain %d nodes, closure %d bytes ==\n", nodes, closure)
		fmt.Printf("%-16s %-10s %-10s %-12s %-9s %-10s %-10s\n",
			"config", "time(s)", "messages", "bytes", "fetches", "blocking", "pf-issued")
	}
	for _, p := range bench.PipelinePoints(model, nodes, closure) {
		res, err := bench.RunPipeline(p.Cfg)
		if err != nil {
			return err
		}
		if csv {
			fmt.Printf("%s,%.6f,%d,%d,%d,%d,%d\n", p.Name, sec(res.Time), res.Messages,
				res.Bytes, res.Fetches, res.BlockingFetches, res.PfIssued)
			continue
		}
		fmt.Printf("%-16s %-10.3f %-10d %-12d %-9d %-10d %-10d\n",
			p.Name, sec(res.Time), res.Messages, res.Bytes, res.Fetches,
			res.BlockingFetches, res.PfIssued)
	}
	if csv {
		return nil
	}
	// A 5 ms one-way delay (10 ms round trip) against ~13 ms of per-closure
	// application think time: enough computation that asynchronous
	// speculation can hide the round trips behind it, as real clients do.
	const (
		demoClients = 2
		demoDelay   = 5 * time.Millisecond
		demoThink   = time.Millisecond
		demoEvery   = 20 // nodes per think pause
	)
	demoNodes := nodes / 4
	fmt.Printf("\n-- wall-clock overlap: %d clients, chain %d nodes, %s link delay, %s think per %d nodes --\n",
		demoClients, demoNodes, demoDelay, demoThink, demoEvery)
	fmt.Printf("%-16s %-12s %-9s %-10s %-10s %-10s\n",
		"config", "wall(s)", "fetches", "blocking", "pf-issued", "coalesced")
	for _, p := range []bench.Point[bench.PipelineConfig]{
		{Name: "smart-demand", Cfg: bench.PipelineConfig{ChainNodes: demoNodes, Clients: demoClients,
			ClosureSize: closure, LinkDelay: demoDelay, Think: demoThink, ThinkEvery: demoEvery}},
		{Name: "smart-prefetch", Cfg: bench.PipelineConfig{ChainNodes: demoNodes, Clients: demoClients,
			ClosureSize: closure, LinkDelay: demoDelay, Think: demoThink, ThinkEvery: demoEvery,
			Prefetch: true}},
	} {
		res, err := bench.RunPipeline(p.Cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-12.3f %-9d %-10d %-10d %-10d\n",
			p.Name, res.WallTime.Seconds(), res.Fetches, res.BlockingFetches,
			res.PfIssued, res.PfCoalesced)
	}
	return nil
}

// scaleout prints the multi-client origin-sharing workload: N client
// spaces walk one shared tree over two rounds each. The client sweep
// shows traffic growing linearly with the clients, the mutation sweep
// shows round-2 revalidation shipping only what the origin changed.
func scaleout(model netsim.Model, nodes, closure int) error {
	if csv {
		fmt.Println("scaleout.clients,mutation_ratio,time_s,messages,net_bytes,faults,fetches")
	} else {
		fmt.Printf("\n== Scale-out: clients sharing one origin, tree %d nodes, closure %d bytes, 2 rounds ==\n",
			nodes, closure)
		fmt.Printf("%-8s %-7s %-10s %-10s %-12s %-9s %-9s\n",
			"clients", "ratio", "time(s)", "messages", "bytes", "faults", "fetches")
	}
	type pt struct {
		clients int
		ratio   float64
	}
	var pts []pt
	for _, n := range []int{1, 2, 4, 8, 16} {
		pts = append(pts, pt{n, 0})
	}
	for _, r := range []float64{0.05, 0.25} {
		pts = append(pts, pt{8, r})
	}
	for _, p := range pts {
		res, err := bench.RunScaleout(bench.ScaleoutConfig{
			Nodes:         nodes,
			ClosureSize:   closure,
			Clients:       p.clients,
			Rounds:        2,
			MutationRatio: p.ratio,
			Model:         model,
		})
		if err != nil {
			return err
		}
		if csv {
			fmt.Printf("%d,%.2f,%.6f,%d,%d,%d,%d\n",
				p.clients, p.ratio, sec(res.Time), res.Messages, res.Bytes, res.Faults, res.Fetches)
			continue
		}
		fmt.Printf("%-8d %-7.2f %-10.3f %-10d %-12d %-9d %-9d\n",
			p.clients, p.ratio, sec(res.Time), res.Messages, res.Bytes, res.Faults, res.Fetches)
	}
	return nil
}

// concurrent prints the overlapping-sessions workload: K client spaces
// run sessions against one shared origin at the same time, and every
// run's history is verified linearizable by internal/histcheck before
// its numbers are printed. Traffic and wall time vary with the real
// interleaving; the operation counts are seed-deterministic.
func concurrent(nodes, closure int) error {
	if csv {
		fmt.Println("concurrent.clients,write_ratio,sessions,reads,writes,checked_ops,partitions,check_s,wall_s,messages,net_bytes")
	} else {
		fmt.Printf("\n== Concurrent sessions: clients sharing one origin, tree %d nodes, closure %d bytes ==\n",
			nodes, closure)
		fmt.Printf("   every row's history verified linearizable (internal/histcheck)\n")
		fmt.Printf("%-8s %-7s %-9s %-7s %-7s %-9s %-11s %-9s %-9s %-10s %-12s\n",
			"clients", "ratio", "sessions", "reads", "writes", "checked", "partitions", "check(s)", "wall(s)", "messages", "bytes")
	}
	for _, p := range bench.ConcurrentPoints(nodes, closure) {
		res, err := bench.RunConcurrent(p.Cfg)
		if err != nil {
			return err
		}
		if csv {
			fmt.Printf("%d,%.2f,%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d\n",
				p.Cfg.Clients, p.Cfg.WriteRatio, res.Sessions, res.Reads, res.Writes,
				res.CheckedOps, res.Partitions, sec(res.CheckTime), sec(res.Wall), res.Messages, res.Bytes)
			continue
		}
		fmt.Printf("%-8d %-7.2f %-9d %-7d %-7d %-9d %-11d %-9.3f %-9.3f %-10d %-12d\n",
			p.Cfg.Clients, p.Cfg.WriteRatio, res.Sessions, res.Reads, res.Writes,
			res.CheckedOps, res.Partitions, sec(res.CheckTime), sec(res.Wall), res.Messages, res.Bytes)
	}
	return nil
}

// stream prints the streamed-transfer workload: one client faults on a
// chain whose whole closure fits the (large) fetch budget, over a chunk
// sweep plus the monolithic-reply ablation. The ttfa column is the
// wall-clock latency of the faulting access itself — with streaming it
// waits only for chunk 0; without it, for the entire reply.
func stream(model netsim.Model, nodes int) error {
	if csv {
		fmt.Println("stream.config,chunk_bytes,ttfa_usec,wall_s,messages,net_bytes,chunks,fetches")
	} else {
		fmt.Printf("\n== Streamed transfer: chain %d nodes, one closure-sized FETCH ==\n", nodes)
		fmt.Printf("%-18s %-12s %-12s %-10s %-10s %-12s %-8s %-8s\n",
			"config", "chunk", "ttfa(us)", "wall(s)", "messages", "bytes", "chunks", "fetches")
	}
	for _, p := range bench.StreamPoints(model, nodes) {
		res, err := bench.RunStream(p.Cfg)
		if err != nil {
			return err
		}
		chunk := "off"
		if c := p.Cfg.StreamChunkBytes; c > 0 {
			chunk = fmt.Sprintf("%dK", c>>10)
		}
		if csv {
			fmt.Printf("%s,%d,%d,%.6f,%d,%d,%d,%d\n",
				p.Name, p.Cfg.StreamChunkBytes, res.TTFA.Microseconds(), res.WallTime.Seconds(),
				res.Messages, res.Bytes, res.Chunks, res.Fetches)
			continue
		}
		fmt.Printf("%-18s %-12s %-12d %-10.3f %-10d %-12d %-8d %-8d\n",
			p.Name, chunk, res.TTFA.Microseconds(), res.WallTime.Seconds(),
			res.Messages, res.Bytes, res.Chunks, res.Fetches)
	}
	return nil
}

// recoverExp prints the transparent exchange-recovery workload: the
// repeated-session caller/callee pair run through the chaos transport.
// The first two rows are the zero-overhead control (identical fault-free
// workload with recovery disarmed and armed — their traffic columns must
// be byte-identical); the faulted rows show every session still
// completing, with the retry/replay counters pricing the recovery.
func recoverExp(model netsim.Model, closure int) error {
	if csv {
		fmt.Println("recover.config,model_s,messages,net_bytes,sessions,chaos_faults,retries,retry_ok,replays,stale_drops")
	} else {
		fmt.Printf("\n== Exchange recovery: 3 sessions under transient faults, tree 1023 nodes, closure %d bytes ==\n", closure)
		fmt.Printf("   every row's per-session checksum verified against the mutation oracle\n")
		fmt.Printf("%-22s %-10s %-10s %-12s %-10s %-8s %-9s %-10s %-9s %-11s\n",
			"config", "model(s)", "messages", "bytes", "sessions", "chaos", "retries", "retry-ok", "replays", "stale-drops")
	}
	for _, p := range bench.RecoverPoints(model, closure) {
		res, err := bench.RunRecover(p.Cfg)
		if err != nil {
			return err
		}
		if csv {
			fmt.Printf("%s,%.6f,%d,%d,%d,%d,%d,%d,%d,%d\n",
				p.Name, sec(res.Time), res.Messages, res.Bytes, res.Sessions,
				res.ChaosFaults, res.Retries, res.RetrySuccesses, res.Replays, res.StaleDrops)
			continue
		}
		fmt.Printf("%-22s %-10.3f %-10d %-12d %-10d %-8d %-9d %-10d %-9d %-11d\n",
			p.Name, sec(res.Time), res.Messages, res.Bytes, res.Sessions,
			res.ChaosFaults, res.Retries, res.RetrySuccesses, res.Replays, res.StaleDrops)
	}
	return nil
}

func table1() error {
	fmt.Printf("\n== Table 1: data allocation table after swizzling pointers A and B ==\n")
	s, err := bench.Table1()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func ablations(model netsim.Model) error {
	fmt.Printf("\n== Ablations (DESIGN.md §5) ==\n")
	for _, t := range bench.AblationTables {
		rows, err := t.Run(model)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s --\n", t.Title)
		cohHead, cohCol := "", func(bench.AblationRow) string { return "" }
		if t.CohBytes {
			cohHead, cohCol = " coh-bytes   ", func(r bench.AblationRow) string { return fmt.Sprintf(" %-12d", r.CohBytes) }
		}
		fmt.Printf("%-24s %-10s %-11s %-10s %-12s%s\n", "config", "time(s)", "callbacks", "messages", "bytes", cohHead)
		for _, r := range rows {
			name := r.Name
			if r.Want != 0 {
				name = fmt.Sprintf("%s (final=%d, want %d)", name, r.Sum, r.Want)
			}
			fmt.Printf("%-24s %-10.3f %-11d %-10d %-12d%s\n", name, sec(r.Time), r.Callbacks, r.Messages, r.Bytes, cohCol(r))
		}
	}
	return nil
}
