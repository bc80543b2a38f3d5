package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
)

// Report is the machine-readable output of the benchmark-regression
// harness (`srpcbench -json > BENCH_<n>.json`). Committed snapshots let a
// later change be checked against an earlier one with nothing but two
// files and a diff: modeled time and traffic must not move at all (the
// cost model is deterministic), and wall time / allocations must not
// regress beyond noise.
type Report struct {
	// Schema versions the report format.
	Schema int `json:"schema"`
	// Model names the network cost model the modeled times assume.
	Model string `json:"model"`
	// Nodes and Closure are the tree size and closure budget the rows
	// were produced with (individual rows may override Closure).
	Nodes   int `json:"nodes"`
	Closure int `json:"closure_bytes"`
	// Runs is how many measured repetitions each row averages over.
	Runs int         `json:"runs"`
	Rows []ReportRow `json:"rows"`
}

// ReportRow is one benchmark point.
type ReportRow struct {
	// Figure tags the experiment family: fig4, fig6, coh-delta,
	// warm-sessions, pipeline, scaleout, concurrent, stream, or recover.
	Figure string `json:"figure"`
	// Config identifies the point within the family.
	Policy  string  `json:"policy"`
	Ratio   float64 `json:"ratio"`
	Closure int     `json:"closure_bytes"`
	// Session numbers the rows of a repeated-session family (1 = cold
	// start); zero for single-session families.
	Session int `json:"session,omitempty"`

	// Deterministic outputs (must be identical between snapshots).
	ModelSec  float64 `json:"model_sec"`
	Callbacks uint64  `json:"callbacks"`
	Messages  uint64  `json:"messages"`
	NetBytes  uint64  `json:"net_bytes"`
	Faults    uint64  `json:"faults"`
	// Crossings counts boundary crossings of the thread of control
	// (call + return messages); MsgsPerCrossing divides total messages
	// by it. CohItemBytes and the item counters attribute bytes on the
	// wire to the coherency path.
	Crossings       uint64  `json:"crossings"`
	MsgsPerCrossing float64 `json:"msgs_per_crossing"`
	CohItemBytes    uint64  `json:"coh_item_bytes"`
	CohItemsShipped uint64  `json:"coh_items_shipped"`
	CohDeltaItems   uint64  `json:"coh_delta_items"`
	CohItemsSkipped uint64  `json:"coh_items_skipped"`
	// ItemBodyBytes is the combined per-session coherency/data item-body
	// wire bytes (fetch bodies + coherency items + revalidation bodies,
	// tokens = 0) and the CohRevalidate columns are the warm-cache
	// revalidation outcomes (warm-sessions rows only).
	ItemBodyBytes       uint64 `json:"item_body_bytes,omitempty"`
	CohRevalidateHits   uint64 `json:"coh_revalidate_hits,omitempty"`
	CohRevalidateMisses uint64 `json:"coh_revalidate_misses,omitempty"`
	CohRevalidateBytes  uint64 `json:"coh_revalidate_bytes,omitempty"`
	// Fetch-pipeline columns (pipeline rows only): Fetches is
	// the total FETCH count, BlockingFetches the subset the application
	// actually stalled on (total minus speculative), and the Pf columns
	// are the speculative prefetcher's own accounting.
	Fetches         uint64 `json:"fetches,omitempty"`
	BlockingFetches uint64 `json:"blocking_fetches,omitempty"`
	PfIssued        uint64 `json:"pf_issued,omitempty"`
	PfCoalesced     uint64 `json:"pf_coalesced,omitempty"`
	PfBytes         uint64 `json:"pf_bytes,omitempty"`
	// Clients (scaleout rows only) is the number of client
	// spaces sharing the one origin.
	Clients int `json:"clients,omitempty"`
	// Concurrent columns (concurrent rows only): committed
	// sessions, the read/write split, and the linearizability checker's
	// history size and per-object partition count — all functions of the
	// per-client seed streams alone, so they are the only columns of a
	// concurrent row that drift-checking compares (traffic and timing
	// are interleaving-dependent under real concurrency). ConcCheckSec
	// is the checker's wall time, host-dependent like WallSec.
	ConcSessions   uint64  `json:"conc_sessions,omitempty"`
	ConcReads      uint64  `json:"conc_reads,omitempty"`
	ConcWrites     uint64  `json:"conc_writes,omitempty"`
	ConcCheckedOps uint64  `json:"conc_checked_ops,omitempty"`
	ConcPartitions uint64  `json:"conc_partitions,omitempty"`
	ConcCheckSec   float64 `json:"conc_check_sec,omitempty"`
	// Streaming columns (stream rows only): Chunks counts the
	// KindFetchChunk frames on the wire — a pure function of the
	// configuration, so it is drift-checked — and TTFAUsec is the
	// wall-clock latency of the first faulting access in microseconds,
	// host-dependent like WallSec and therefore reported but not
	// compared.
	Chunks   uint64  `json:"chunks,omitempty"`
	TTFAUsec float64 `json:"ttfa_usec,omitempty"`
	// Recovery columns (recover rows only): completed sessions,
	// chaos faults injected, and the recovery machinery's totals. On the
	// fault-free rows every recovery counter must be zero (that is the
	// zero-overhead claim) and all modeled columns are drift-checked; on
	// the faulted rows retries race real-time deadlines, so only
	// rec_sessions — completion itself — is compared.
	RecSessions   uint64 `json:"rec_sessions,omitempty"`
	RecFaults     uint64 `json:"rec_faults,omitempty"`
	RecRetries    uint64 `json:"rec_retries,omitempty"`
	RecReplays    uint64 `json:"rec_replays,omitempty"`
	RecStaleDrops uint64 `json:"rec_stale_drops,omitempty"`

	// Host-dependent outputs (regression-checked with slack).
	WallSec         float64 `json:"wall_sec"`
	AllocsPerOp     uint64  `json:"allocs_per_op"`
	AllocBytesPerOp uint64  `json:"alloc_bytes_per_op"`
}

// reportPoint is one configuration the report measures.
type reportPoint struct {
	figure  string
	policy  core.Policy
	name    string
	ratio   float64
	clos    int
	update  bool
	repeats int
	noDelta bool
}

// BuildReport runs the regression suite and returns the filled report.
// Each point runs once to warm caches, then `runs` measured times; wall
// time and allocation counts are averaged, while the modeled outputs are
// taken from the last run (they are identical across runs by
// construction).
func BuildReport(model netsim.Model, nodes, closure, runs int) (Report, error) {
	if runs < 1 {
		runs = 1
	}
	rep := Report{Schema: 10, Model: "ethernet10-sparc", Nodes: nodes, Closure: closure, Runs: runs}

	var points []reportPoint
	for _, pol := range []struct {
		p core.Policy
		n string
	}{{core.PolicyEager, "eager"}, {core.PolicyLazy, "lazy"}, {core.PolicySmart, "smart"}} {
		for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			points = append(points, reportPoint{
				figure: "fig4", policy: pol.p, name: pol.n, ratio: ratio, clos: closure,
			})
		}
	}
	for _, cs := range DefaultClosureSizes {
		points = append(points, reportPoint{
			figure: "fig6", policy: core.PolicySmart, name: "smart", ratio: 1.0, clos: cs,
		})
	}
	// Delta shipping against its full-shipping ablation on the repeated
	// update workload: the coh_item_bytes column quantifies the win.
	for _, ratio := range []float64{0.5, 1.0} {
		for _, noDelta := range []bool{false, true} {
			name := "smart-delta"
			if noDelta {
				name = "smart-fullship"
			}
			points = append(points, reportPoint{
				figure: "coh-delta", policy: core.PolicySmart, name: name,
				ratio: ratio, clos: closure, update: true, repeats: 8, noDelta: noDelta,
			})
		}
	}

	for _, pt := range points {
		row, err := measurePoint(model, nodes, runs, pt)
		if err != nil {
			return Report{}, fmt.Errorf("report %s/%s/%.2f: %w", pt.figure, pt.name, pt.ratio, err)
		}
		rep.Rows = append(rep.Rows, row)
	}

	// The repeated-session family: per-session traffic of the
	// warm cross-session cache over a mutation-ratio sweep, with the
	// discard-on-invalidate ablation at ratio 0 as the control.
	warmPoints := []struct {
		name   string
		ratio  float64
		noWarm bool
	}{
		{"smart-warm", 0, false},
		{"smart-warm", 0.05, false},
		{"smart-warm", 0.25, false},
		{"smart-coldstart", 0, true},
	}
	for _, wp := range warmPoints {
		rows, err := measureWarmPoint(model, nodes, closure, runs, wp.name, wp.ratio, wp.noWarm)
		if err != nil {
			return Report{}, fmt.Errorf("report warm-sessions/%s/%.2f: %w", wp.name, wp.ratio, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}

	// The fetch-pipeline family: the pointer-chase workload with
	// the speculative prefetcher off (the demand baseline) and on. One
	// client with synchronous speculation keeps every modeled column —
	// including the prefetch counters — deterministic.
	for _, pp := range []struct {
		name     string
		prefetch bool
	}{
		{"smart-demand", false},
		{"smart-prefetch", true},
	} {
		row, err := measurePipelinePoint(model, nodes, closure, runs, pp.name, pp.prefetch)
		if err != nil {
			return Report{}, fmt.Errorf("report pipeline/%s: %w", pp.name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}

	// The scale-out family: N clients sharing one origin — a
	// client sweep at ratio 0 and a mutation sweep at 8 clients.
	for _, sp := range []struct {
		clients int
		ratio   float64
	}{
		{1, 0},
		{4, 0},
		{8, 0},
		{8, 0.05},
		{8, 0.25},
	} {
		row, err := measureScaleoutPoint(model, nodes, closure, runs, sp.clients, sp.ratio)
		if err != nil {
			return Report{}, fmt.Errorf("report scaleout/%d/%.2f: %w", sp.clients, sp.ratio, err)
		}
		rep.Rows = append(rep.Rows, row)
	}

	// The concurrent family: K clients holding truly
	// overlapping sessions over one shared origin, every run verified
	// linearizable by internal/histcheck. Only the seed-deterministic
	// operation counts are drift-checked.
	for _, cp := range []struct {
		clients int
		ratio   float64
	}{
		{2, 0.25},
		{4, 0.25},
		{8, 0},
		{8, 0.05},
		{8, 0.25},
	} {
		row, err := measureConcurrentPoint(nodes, closure, runs, cp.clients, cp.ratio)
		if err != nil {
			return Report{}, fmt.Errorf("report concurrent/%d/%.2f: %w", cp.clients, cp.ratio, err)
		}
		rep.Rows = append(rep.Rows, row)
	}

	// The stream family: one huge closure shipped to a single
	// client, over a chunk-size sweep plus the monolithic-reply ablation.
	// The chunk count is deterministic and drift-checked; the
	// time-to-first-access column is the wall-clock payoff.
	for _, sp := range []struct {
		name  string
		chunk int
	}{
		{"smart-stream-16k", 16 << 10},
		{"smart-stream-64k", 64 << 10},
		{"smart-stream-256k", 256 << 10},
		{"smart-nostream", -1},
	} {
		row, err := measureStreamPoint(model, nodes, runs, sp.name, sp.chunk)
		if err != nil {
			return Report{}, fmt.Errorf("report stream/%s: %w", sp.name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}

	// The recover family: the zero-overhead pair first — the
	// identical fault-free workload with recovery disarmed and armed,
	// whose wire columns must be byte-identical — then a transient-fault
	// sweep where completion (rec_sessions) is the deterministic claim
	// and the retry/replay counters are the reported price.
	for _, rp := range []struct {
		name               string
		drop, dup, corrupt int
		disabled           bool
	}{
		{name: "smart-recover-off", disabled: true},
		{name: "smart-recover-clean"},
		{name: "smart-recover-drop", drop: 250},
		{name: "smart-recover-dup", dup: 100},
		{name: "smart-recover-corrupt", corrupt: 60},
		{name: "smart-recover-mix", drop: 150, dup: 150, corrupt: 60},
	} {
		row, err := measureRecoverPoint(model, closure, runs, rp.name, rp.drop, rp.dup, rp.corrupt, rp.disabled)
		if err != nil {
			return Report{}, fmt.Errorf("report recover/%s: %w", rp.name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// measureRecoverPoint runs one exchange-recovery configuration and fills
// a recover row. The tree is kept small (the faulted points pay a real
// CallTimeout per absorbed fault, so the row has to stay affordable) and
// fixed independent of the report's Nodes setting so the chaos schedule
// is stable.
func measureRecoverPoint(model netsim.Model, closure, runs int, name string, drop, dup, corrupt int, disabled bool) (ReportRow, error) {
	cfg := RecoverConfig{
		Nodes:           1023,
		ClosureSize:     closure,
		Sessions:        3,
		MutationRatio:   0.05,
		DropPermille:    drop,
		DupPermille:     dup,
		CorruptPermille: corrupt,
		Seed:            1,
		DisableRecovery: disabled,
		Model:           model,
	}
	if _, err := RunRecover(cfg); err != nil { // warm-up
		return ReportRow{}, err
	}
	var last RecoverResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := RunRecover(cfg)
		if err != nil {
			return ReportRow{}, err
		}
		last = res
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	return ReportRow{
		Figure:          "recover",
		Policy:          name,
		Closure:         cfg.ClosureSize,
		ModelSec:        last.Time.Seconds(),
		Messages:        last.Messages,
		NetBytes:        last.Bytes,
		Faults:          last.Faults,
		RecSessions:     last.Sessions,
		RecFaults:       last.ChaosFaults,
		RecRetries:      last.Retries,
		RecReplays:      last.Replays,
		RecStaleDrops:   last.StaleDrops,
		WallSec:         wall.Seconds() / float64(runs),
		AllocsPerOp:     (ms2.Mallocs - ms1.Mallocs) / uint64(runs),
		AllocBytesPerOp: (ms2.TotalAlloc - ms1.TotalAlloc) / uint64(runs),
	}, nil
}

// measureStreamPoint runs one streamed-transfer configuration and fills
// a stream row. The closure budget is fixed large (StreamConfig's 4 MiB
// default) so the whole chain ships on the first fault regardless of the
// report's closure setting.
func measureStreamPoint(model netsim.Model, nodes, runs int, name string, chunk int) (ReportRow, error) {
	cfg := StreamConfig{
		Nodes:            nodes,
		StreamChunkBytes: chunk,
		Model:            model,
	}
	if _, err := RunStream(cfg); err != nil { // warm-up
		return ReportRow{}, err
	}
	var last StreamResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	var ttfa time.Duration
	for i := 0; i < runs; i++ {
		res, err := RunStream(cfg)
		if err != nil {
			return ReportRow{}, err
		}
		last = res
		ttfa += res.TTFA
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	cfg.fill()
	return ReportRow{
		Figure:          "stream",
		Policy:          name,
		Closure:         cfg.ClosureSize,
		ModelSec:        last.Time.Seconds(),
		Messages:        last.Messages,
		NetBytes:        last.Bytes,
		Faults:          last.Faults,
		Fetches:         last.Fetches,
		Chunks:          last.Chunks,
		TTFAUsec:        float64(ttfa.Microseconds()) / float64(runs),
		WallSec:         wall.Seconds() / float64(runs),
		AllocsPerOp:     (ms2.Mallocs - ms1.Mallocs) / uint64(runs),
		AllocBytesPerOp: (ms2.TotalAlloc - ms1.TotalAlloc) / uint64(runs),
	}, nil
}

// measureConcurrentPoint runs one concurrent-sessions configuration and
// fills a concurrent row. The network model is left free: virtual time
// is ill-defined when sessions overlap, so the row's timing column is
// wall clock and its deterministic columns are the operation counts.
func measureConcurrentPoint(nodes, closure, runs int, clients int, ratio float64) (ReportRow, error) {
	cfg := ConcurrentConfig{
		Nodes:       nodes,
		ClosureSize: closure,
		Clients:     clients,
		WriteRatio:  ratio,
		Seed:        1,
	}
	if _, err := RunConcurrent(cfg); err != nil { // warm-up
		return ReportRow{}, err
	}
	var last ConcurrentResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := RunConcurrent(cfg)
		if err != nil {
			return ReportRow{}, err
		}
		last = res
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	return ReportRow{
		Figure:          "concurrent",
		Policy:          "smart-concurrent",
		Ratio:           ratio,
		Closure:         closure,
		Clients:         clients,
		Messages:        last.Messages,
		NetBytes:        last.Bytes,
		ConcSessions:    last.Sessions,
		ConcReads:       last.Reads,
		ConcWrites:      last.Writes,
		ConcCheckedOps:  last.CheckedOps,
		ConcPartitions:  last.Partitions,
		ConcCheckSec:    last.CheckTime.Seconds(),
		WallSec:         wall.Seconds() / float64(runs),
		AllocsPerOp:     (ms2.Mallocs - ms1.Mallocs) / uint64(runs),
		AllocBytesPerOp: (ms2.TotalAlloc - ms1.TotalAlloc) / uint64(runs),
	}, nil
}

// measureScaleoutPoint runs one multi-client scale-out configuration and
// fills a scaleout row. Clients run sequentially, so every modeled
// column is deterministic.
func measureScaleoutPoint(model netsim.Model, nodes, closure, runs int, clients int, ratio float64) (ReportRow, error) {
	cfg := ScaleoutConfig{
		Nodes:         nodes,
		ClosureSize:   closure,
		Clients:       clients,
		Rounds:        2,
		MutationRatio: ratio,
		Model:         model,
	}
	if _, err := RunScaleout(cfg); err != nil { // warm-up
		return ReportRow{}, err
	}
	var last ScaleoutResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := RunScaleout(cfg)
		if err != nil {
			return ReportRow{}, err
		}
		last = res
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	return ReportRow{
		Figure:          "scaleout",
		Policy:          "smart-shared",
		Ratio:           ratio,
		Closure:         closure,
		Clients:         clients,
		ModelSec:        last.Time.Seconds(),
		Messages:        last.Messages,
		NetBytes:        last.Bytes,
		Faults:          last.Faults,
		Fetches:         last.Fetches,
		WallSec:         wall.Seconds() / float64(runs),
		AllocsPerOp:     (ms2.Mallocs - ms1.Mallocs) / uint64(runs),
		AllocBytesPerOp: (ms2.TotalAlloc - ms1.TotalAlloc) / uint64(runs),
	}, nil
}

// measurePipelinePoint runs one deterministic pointer-chase configuration
// (single client, synchronous speculation) and fills a pipeline row.
func measurePipelinePoint(model netsim.Model, nodes, closure, runs int, name string, prefetch bool) (ReportRow, error) {
	cfg := PipelineConfig{
		ChainNodes:   nodes,
		ClosureSize:  closure,
		Prefetch:     prefetch,
		SyncPrefetch: true,
		Model:        model,
	}
	if _, err := RunPipeline(cfg); err != nil { // warm-up
		return ReportRow{}, err
	}
	var last PipelineResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := RunPipeline(cfg)
		if err != nil {
			return ReportRow{}, err
		}
		last = res
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	return ReportRow{
		Figure:          "pipeline",
		Policy:          name,
		Closure:         closure,
		ModelSec:        last.Time.Seconds(),
		Messages:        last.Messages,
		NetBytes:        last.Bytes,
		Faults:          last.Faults,
		Fetches:         last.Fetches,
		BlockingFetches: last.BlockingFetches,
		PfIssued:        last.PfIssued,
		PfCoalesced:     last.PfCoalesced,
		PfBytes:         last.PfBytes,
		WallSec:         wall.Seconds() / float64(runs),
		AllocsPerOp:     (ms2.Mallocs - ms1.Mallocs) / uint64(runs),
		AllocBytesPerOp: (ms2.TotalAlloc - ms1.TotalAlloc) / uint64(runs),
	}, nil
}

// measureWarmPoint runs one repeated-session configuration and returns a
// row per session. Wall time and allocations are whole-run averages
// spread evenly over the sessions; the modeled columns are per-session.
func measureWarmPoint(model netsim.Model, nodes, closure, runs int, name string, ratio float64, noWarm bool) ([]ReportRow, error) {
	const sessions = 4
	cfg := WarmConfig{
		Nodes:            nodes,
		ClosureSize:      closure,
		Sessions:         sessions,
		MutationRatio:    ratio,
		Model:            model,
		DisableWarmCache: noWarm,
	}
	if _, err := RunWarmSessions(cfg); err != nil { // warm-up
		return nil, err
	}
	var last WarmResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := RunWarmSessions(cfg)
		if err != nil {
			return nil, err
		}
		last = res
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	ops := uint64(runs) * sessions
	rows := make([]ReportRow, 0, sessions)
	for i, s := range last.Sessions {
		perCrossing := 0.0
		if s.Crossings > 0 {
			perCrossing = float64(s.Messages) / float64(s.Crossings)
		}
		rows = append(rows, ReportRow{
			Figure:              "warm-sessions",
			Policy:              name,
			Ratio:               ratio,
			Closure:             closure,
			Session:             i + 1,
			ModelSec:            s.Time.Seconds(),
			Callbacks:           s.Callbacks,
			Messages:            s.Messages,
			NetBytes:            s.Bytes,
			Faults:              s.Faults,
			Crossings:           s.Crossings,
			MsgsPerCrossing:     perCrossing,
			ItemBodyBytes:       s.ItemBodyBytes,
			CohRevalidateHits:   s.RevalidateHits,
			CohRevalidateMisses: s.RevalidateMisses,
			CohRevalidateBytes:  s.RevalidateBytes,
			WallSec:             wall.Seconds() / float64(ops),
			AllocsPerOp:         (ms2.Mallocs - ms1.Mallocs) / ops,
			AllocBytesPerOp:     (ms2.TotalAlloc - ms1.TotalAlloc) / ops,
		})
	}
	return rows, nil
}

// Check compares the deterministic modeled columns of cur against a
// committed baseline snapshot. Every baseline row must be present in cur
// (matched by figure/policy/ratio/closure) with identical modeled
// outputs; rows that exist only in cur are new experiments and pass.
// Wall-clock and allocation columns are host-dependent and ignored.
func Check(baseline, cur Report) error {
	if baseline.Nodes != cur.Nodes || baseline.Closure != cur.Closure {
		return fmt.Errorf("config mismatch: baseline %d nodes/%d closure, current %d/%d",
			baseline.Nodes, baseline.Closure, cur.Nodes, cur.Closure)
	}
	byKey := make(map[string]ReportRow, len(cur.Rows))
	for _, r := range cur.Rows {
		byKey[rowKey(r)] = r
	}
	var drifts []string
	for _, want := range baseline.Rows {
		got, ok := byKey[rowKey(want)]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("%s: row missing", rowKey(want)))
			continue
		}
		check := func(col string, wantV, gotV float64) {
			if wantV != gotV {
				drifts = append(drifts, fmt.Sprintf("%s: %s = %v, baseline %v", rowKey(want), col, gotV, wantV))
			}
		}
		if want.Figure == "recover" && (want.RecFaults > 0 || got.RecFaults > 0) {
			// Faulted recover rows: retries race real-time deadlines, so
			// traffic and timing are host-dependent. The deterministic
			// claim is completion — every configured session finished.
			check("rec_sessions", float64(want.RecSessions), float64(got.RecSessions))
			continue
		}
		if want.Figure == "concurrent" {
			// Concurrent rows run K goroutines against one origin: wire
			// traffic and timing depend on the real interleaving, so only
			// the seed-deterministic operation counts are compared.
			check("conc_sessions", float64(want.ConcSessions), float64(got.ConcSessions))
			check("conc_reads", float64(want.ConcReads), float64(got.ConcReads))
			check("conc_writes", float64(want.ConcWrites), float64(got.ConcWrites))
			check("conc_checked_ops", float64(want.ConcCheckedOps), float64(got.ConcCheckedOps))
			check("conc_partitions", float64(want.ConcPartitions), float64(got.ConcPartitions))
			continue
		}
		check("model_sec", want.ModelSec, got.ModelSec)
		check("callbacks", float64(want.Callbacks), float64(got.Callbacks))
		check("messages", float64(want.Messages), float64(got.Messages))
		check("net_bytes", float64(want.NetBytes), float64(got.NetBytes))
		check("faults", float64(want.Faults), float64(got.Faults))
		check("crossings", float64(want.Crossings), float64(got.Crossings))
		check("msgs_per_crossing", want.MsgsPerCrossing, got.MsgsPerCrossing)
		check("coh_item_bytes", float64(want.CohItemBytes), float64(got.CohItemBytes))
		check("coh_items_shipped", float64(want.CohItemsShipped), float64(got.CohItemsShipped))
		check("coh_delta_items", float64(want.CohDeltaItems), float64(got.CohDeltaItems))
		check("coh_items_skipped", float64(want.CohItemsSkipped), float64(got.CohItemsSkipped))
		check("item_body_bytes", float64(want.ItemBodyBytes), float64(got.ItemBodyBytes))
		check("coh_revalidate_hits", float64(want.CohRevalidateHits), float64(got.CohRevalidateHits))
		check("coh_revalidate_misses", float64(want.CohRevalidateMisses), float64(got.CohRevalidateMisses))
		check("coh_revalidate_bytes", float64(want.CohRevalidateBytes), float64(got.CohRevalidateBytes))
		check("fetches", float64(want.Fetches), float64(got.Fetches))
		check("blocking_fetches", float64(want.BlockingFetches), float64(got.BlockingFetches))
		check("pf_issued", float64(want.PfIssued), float64(got.PfIssued))
		check("pf_coalesced", float64(want.PfCoalesced), float64(got.PfCoalesced))
		check("pf_bytes", float64(want.PfBytes), float64(got.PfBytes))
		// TTFAUsec is wall clock and skipped, like WallSec.
		check("chunks", float64(want.Chunks), float64(got.Chunks))
		// Of the recover rows only the fault-free ones reach here (faulted
		// ones exit above): armed-but-idle recovery must do zero retry work.
		check("rec_sessions", float64(want.RecSessions), float64(got.RecSessions))
		check("rec_retries", float64(want.RecRetries), float64(got.RecRetries))
		check("rec_replays", float64(want.RecReplays), float64(got.RecReplays))
		check("rec_stale_drops", float64(want.RecStaleDrops), float64(got.RecStaleDrops))
	}
	if len(drifts) > 0 {
		return fmt.Errorf("modeled columns drifted from baseline:\n  %s", strings.Join(drifts, "\n  "))
	}
	return nil
}

// hostColumns are the report columns that depend on the host's speed;
// Diff skips them, as Check does.
var hostColumns = map[string]bool{
	"wall_sec": true, "allocs_per_op": true, "alloc_bytes_per_op": true,
	"ttfa_usec": true, "conc_check_sec": true,
}

// Diff lists every difference between two report snapshots, column by
// column, for the write-up of a re-baseline: a row in only one of them, or
// a deterministic column whose value changed. It reads the snapshots as
// plain JSON, so it also sees columns the current ReportRow no longer has.
// Rows whose traffic depends on a real interleaving are compared on the
// columns Check compares (concurrent rows: the operation counts; faulted
// recover rows: completion).
func Diff(oldRaw, newRaw []byte) ([]string, error) {
	type snapshot struct {
		Rows []map[string]any `json:"rows"`
	}
	key := func(r map[string]any) string {
		num := func(col string) float64 { v, _ := r[col].(float64); return v }
		return fmt.Sprintf("%v/%v/%.4f/%d/%d/%d", r["figure"], r["policy"], num("ratio"),
			int(num("closure_bytes")), int(num("session")), int(num("clients")))
	}
	var a, b snapshot
	if err := json.Unmarshal(oldRaw, &a); err != nil {
		return nil, fmt.Errorf("old snapshot: %w", err)
	}
	if err := json.Unmarshal(newRaw, &b); err != nil {
		return nil, fmt.Errorf("new snapshot: %w", err)
	}
	newRows := make(map[string]map[string]any, len(b.Rows))
	for _, r := range b.Rows {
		newRows[key(r)] = r
	}
	var out []string
	for _, ra := range a.Rows {
		k := key(ra)
		rb, ok := newRows[k]
		if !ok {
			out = append(out, k+": row only in the old snapshot")
			continue
		}
		delete(newRows, k)
		faulted := func(r map[string]any) bool { v, _ := r["rec_faults"].(float64); return v > 0 }
		compared := func(col string) bool {
			switch {
			case hostColumns[col]:
				return false
			case ra["figure"] == "concurrent":
				return strings.HasPrefix(col, "conc_")
			case ra["figure"] == "recover" && (faulted(ra) || faulted(rb)):
				return col == "rec_sessions"
			}
			return true
		}
		cols := make([]string, 0, len(ra)+len(rb))
		for col := range ra {
			cols = append(cols, col)
		}
		for col := range rb {
			if _, dup := ra[col]; !dup {
				cols = append(cols, col)
			}
		}
		slices.Sort(cols)
		show := func(v any) string {
			if v == nil {
				return "absent"
			}
			return fmt.Sprint(v)
		}
		for _, col := range cols {
			if compared(col) && ra[col] != rb[col] {
				out = append(out, fmt.Sprintf("%s: %s %s -> %s", k, col, show(ra[col]), show(rb[col])))
			}
		}
	}
	for _, r := range b.Rows {
		if k := key(r); newRows[k] != nil {
			out = append(out, k+": row only in the new snapshot")
		}
	}
	return out, nil
}

func rowKey(r ReportRow) string {
	return fmt.Sprintf("%s/%s/%.4f/%d/%d/%d", r.Figure, r.Policy, r.Ratio, r.Closure, r.Session, r.Clients)
}

func measurePoint(model netsim.Model, nodes, runs int, pt reportPoint) (ReportRow, error) {
	cfg := TreeConfig{
		Policy:           pt.policy,
		Nodes:            nodes,
		ClosureSize:      pt.clos,
		AccessRatio:      pt.ratio,
		Update:           pt.update,
		Repeats:          pt.repeats,
		Model:            model,
		DisableDeltaShip: pt.noDelta,
	}
	// Warm-up run: first-use initialization (layout caches, pools) should
	// not be charged to the measurement.
	if _, err := RunTree(cfg); err != nil {
		return ReportRow{}, err
	}
	var last TreeResult
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := RunTree(cfg)
		if err != nil {
			return ReportRow{}, err
		}
		last = res
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	perCrossing := 0.0
	if last.Crossings > 0 {
		perCrossing = float64(last.Messages) / float64(last.Crossings)
	}
	return ReportRow{
		Figure:          pt.figure,
		Policy:          pt.name,
		Ratio:           pt.ratio,
		Closure:         pt.clos,
		ModelSec:        last.Time.Seconds(),
		Callbacks:       last.Callbacks,
		Messages:        last.Messages,
		NetBytes:        last.Bytes,
		Faults:          last.Faults,
		Crossings:       last.Crossings,
		MsgsPerCrossing: perCrossing,
		CohItemBytes:    last.CohItemBytes,
		CohItemsShipped: last.CohItemsShipped,
		CohDeltaItems:   last.CohDeltaItems,
		CohItemsSkipped: last.CohItemsSkipped,
		WallSec:         wall.Seconds() / float64(runs),
		AllocsPerOp:     (ms2.Mallocs - ms1.Mallocs) / uint64(runs),
		AllocBytesPerOp: (ms2.TotalAlloc - ms1.TotalAlloc) / uint64(runs),
	}, nil
}
