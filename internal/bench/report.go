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
	// Figure tags the experiment family: fig4, fig6, coh-delta, fig7,
	// warm-sessions, pipeline, scaleout, concurrent, stream, recover, or
	// one of the ablation tables (abl-page, abl-hash, ...).
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
	// Sum (ablation rows only) is the workload's checksum; on the
	// 3-space chain rows, the final counter value.
	Sum int64 `json:"sum,omitempty"`

	// Host-dependent outputs (regression-checked with slack).
	WallSec         float64 `json:"wall_sec"`
	AllocsPerOp     uint64  `json:"allocs_per_op"`
	AllocBytesPerOp uint64  `json:"alloc_bytes_per_op"`
}

// Point is one named configuration of an experiment sweep. srpcbench
// prints a sweep and the report gates it from the same points.
type Point[C any] struct {
	Name string
	Cfg  C
}

// BuildReport runs the regression suite and returns the filled report.
// Each point runs once to warm caches, then `runs` measured times; wall
// time and allocation counts are averaged, while the modeled outputs are
// taken from the last run (they are identical across runs by
// construction).
func BuildReport(model netsim.Model, nodes, closure, runs int) (Report, error) {
	runs = max(runs, 1)
	rep := Report{Schema: 11, Model: "ethernet10-sparc", Nodes: nodes, Closure: closure, Runs: runs}

	var fig4, fig6, cohDelta []Point[TreeConfig]
	for _, pol := range []core.Policy{core.PolicyEager, core.PolicyLazy, core.PolicySmart} {
		for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			fig4 = append(fig4, Point[TreeConfig]{policyNames[pol], TreeConfig{
				Policy: pol, Nodes: nodes, ClosureSize: closure, AccessRatio: ratio, Model: model}})
		}
	}
	for _, cs := range DefaultClosureSizes {
		fig6 = append(fig6, Point[TreeConfig]{"smart", TreeConfig{
			Policy: core.PolicySmart, Nodes: nodes, ClosureSize: cs, AccessRatio: 1.0, Model: model}})
	}
	// Delta shipping against its full-shipping ablation on the repeated
	// update workload: the coh_item_bytes column quantifies the win.
	for _, ratio := range []float64{0.5, 1.0} {
		for _, name := range []string{"smart-delta", "smart-fullship"} {
			cohDelta = append(cohDelta, Point[TreeConfig]{name, TreeConfig{
				Policy: core.PolicySmart, Nodes: nodes, ClosureSize: closure, AccessRatio: ratio,
				Update: true, Repeats: 8, Model: model, DisableDeltaShip: name == "smart-fullship"}})
		}
	}
	for _, family := range []struct {
		figure string
		points []Point[TreeConfig]
	}{
		{"fig4", fig4}, {"fig6", fig6}, {"coh-delta", cohDelta},
		{"fig7", fig7Points(model, nodes, closure, DefaultRatios)},
	} {
		if err := measure(&rep, family.figure, family.points, runs, RunTree, treeRows); err != nil {
			return Report{}, err
		}
	}

	err := measure(&rep, "warm-sessions", WarmPoints(model, nodes, closure), runs, RunWarmSessions,
		func(p Point[WarmConfig], res WarmResult, _ []WarmResult, host ReportRow) []ReportRow {
			host = host.perOp(len(res.Sessions))
			rows := make([]ReportRow, len(res.Sessions))
			for i, s := range res.Sessions {
				row := host
				row.Ratio, row.Closure, row.Session = p.Cfg.MutationRatio, p.Cfg.ClosureSize, i+1
				row.traffic(s.Traffic)
				row.Callbacks, row.Faults, row.ItemBodyBytes = s.Callbacks, s.Faults, s.ItemBodyBytes
				row.CohRevalidateHits, row.CohRevalidateMisses, row.CohRevalidateBytes =
					s.RevalidateHits, s.RevalidateMisses, s.RevalidateBytes
				rows[i] = row
			}
			return rows
		})
	if err != nil {
		return Report{}, err
	}
	err = measure(&rep, "pipeline", PipelinePoints(model, nodes, closure), runs, RunPipeline,
		func(p Point[PipelineConfig], res PipelineResult, _ []PipelineResult, row ReportRow) []ReportRow {
			row.Closure = p.Cfg.ClosureSize
			row.traffic(res.Traffic)
			row.Faults, row.Fetches, row.BlockingFetches = res.Faults, res.Fetches, res.BlockingFetches
			row.PfIssued, row.PfCoalesced, row.PfBytes = res.PfIssued, res.PfCoalesced, res.PfBytes
			return []ReportRow{row}
		})
	if err != nil {
		return Report{}, err
	}
	// The scale-out family: N clients sharing one origin — a client sweep
	// at ratio 0 and a mutation sweep at 8 clients.
	var scaleout []Point[ScaleoutConfig]
	for _, sp := range []struct {
		clients int
		ratio   float64
	}{{1, 0}, {4, 0}, {8, 0}, {8, 0.05}, {8, 0.25}} {
		scaleout = append(scaleout, Point[ScaleoutConfig]{"smart-shared", ScaleoutConfig{Nodes: nodes,
			ClosureSize: closure, Clients: sp.clients, Rounds: 2, MutationRatio: sp.ratio, Model: model}})
	}
	err = measure(&rep, "scaleout", scaleout, runs, RunScaleout,
		func(p Point[ScaleoutConfig], res ScaleoutResult, _ []ScaleoutResult, row ReportRow) []ReportRow {
			row.Ratio, row.Closure, row.Clients = p.Cfg.MutationRatio, p.Cfg.ClosureSize, p.Cfg.Clients
			row.traffic(res.Traffic)
			row.Faults, row.Fetches = res.Faults, res.Fetches
			return []ReportRow{row}
		})
	if err != nil {
		return Report{}, err
	}
	err = measure(&rep, "concurrent", ConcurrentPoints(nodes, closure), runs, RunConcurrent,
		func(p Point[ConcurrentConfig], res ConcurrentResult, _ []ConcurrentResult, row ReportRow) []ReportRow {
			row.Ratio, row.Closure, row.Clients = p.Cfg.WriteRatio, p.Cfg.ClosureSize, p.Cfg.Clients
			row.traffic(res.Traffic)
			row.ConcSessions, row.ConcReads, row.ConcWrites = res.Sessions, res.Reads, res.Writes
			row.ConcCheckedOps, row.ConcPartitions = res.CheckedOps, res.Partitions
			row.ConcCheckSec = res.CheckTime.Seconds()
			return []ReportRow{row}
		})
	if err != nil {
		return Report{}, err
	}
	err = measure(&rep, "stream", StreamPoints(model, nodes), runs, RunStream,
		func(p Point[StreamConfig], res StreamResult, all []StreamResult, row ReportRow) []ReportRow {
			cfg := p.Cfg
			cfg.fill()
			row.Closure = cfg.ClosureSize
			row.traffic(res.Traffic)
			row.Faults, row.Fetches, row.Chunks = res.Faults, res.Fetches, res.Chunks
			var ttfa time.Duration
			for _, r := range all {
				ttfa += r.TTFA
			}
			row.TTFAUsec = float64(ttfa.Microseconds()) / float64(len(all))
			return []ReportRow{row}
		})
	if err != nil {
		return Report{}, err
	}
	err = measure(&rep, "recover", RecoverPoints(model, closure), runs, RunRecover,
		func(p Point[RecoverConfig], res RecoverResult, _ []RecoverResult, row ReportRow) []ReportRow {
			// Recover rows carry no crossings column: the snapshot pins it
			// at zero, so the traffic is copied without it.
			row.Closure = p.Cfg.ClosureSize
			row.ModelSec, row.Messages, row.NetBytes = res.Time.Seconds(), res.Messages, res.Bytes
			row.Faults = res.Faults
			row.RecSessions, row.RecFaults, row.RecRetries = res.Sessions, res.ChaosFaults, res.Retries
			row.RecReplays, row.RecStaleDrops = res.Replays, res.StaleDrops
			return []ReportRow{row}
		})
	if err != nil {
		return Report{}, err
	}
	// The ablation tables run at their own fixed sizes, whatever the
	// report's tree size; a row's host columns are its table's per-row
	// mean.
	for _, t := range AblationTables {
		all, host, err := timed(runs, func() ([]AblationRow, error) { return t.Run(model) })
		if err != nil {
			return Report{}, fmt.Errorf("report %s: %w", t.Figure, err)
		}
		last := all[len(all)-1]
		host = host.perOp(len(last))
		for _, a := range last {
			row := host
			row.Figure, row.Policy = t.Figure, a.Name
			row.traffic(a.Traffic)
			row.Callbacks, row.CohItemBytes, row.Sum = a.Callbacks, a.CohBytes, a.Sum
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// policyNames are the report's names for the three transfer methods.
var policyNames = map[core.Policy]string{core.PolicyEager: "eager", core.PolicyLazy: "lazy", core.PolicySmart: "smart"}

func treeRows(p Point[TreeConfig], res TreeResult, _ []TreeResult, row ReportRow) []ReportRow {
	row.Ratio, row.Closure = p.Cfg.AccessRatio, p.Cfg.ClosureSize
	row.traffic(res.Traffic)
	row.Callbacks, row.Faults = res.Callbacks, res.Faults
	row.CohItemBytes, row.CohItemsShipped = res.CohItemBytes, res.CohItemsShipped
	row.CohDeltaItems, row.CohItemsSkipped = res.CohDeltaItems, res.CohItemsSkipped
	return []ReportRow{row}
}

// measure times every point of one family and appends its rows: rows
// turns a point's last measured result (the modeled columns are identical
// across runs by construction) into rows whose host columns it is handed.
func measure[C, R any](rep *Report, figure string, points []Point[C], runs int,
	run func(C) (R, error), rows func(p Point[C], last R, all []R, host ReportRow) []ReportRow) error {
	for _, p := range points {
		all, host, err := timed(runs, func() (R, error) { return run(p.Cfg) })
		if err != nil {
			return fmt.Errorf("report %s/%s: %w", figure, p.Name, err)
		}
		for _, row := range rows(p, all[len(all)-1], all, host) {
			row.Figure, row.Policy = figure, p.Name
			rep.Rows = append(rep.Rows, row)
		}
	}
	return nil
}

// timed runs run once to warm up — first-use initialization (layout
// caches, pools) is not charged — and then runs times after a GC. It
// returns the measured results and a row whose host columns hold one
// run's mean cost.
func timed[R any](runs int, run func() (R, error)) ([]R, ReportRow, error) {
	if _, err := run(); err != nil {
		return nil, ReportRow{}, err
	}
	all := make([]R, runs)
	mem := func() (mallocs, bytes uint64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs, ms.TotalAlloc
	}
	runtime.GC()
	m0, b0 := mem()
	start := time.Now()
	for i := range all {
		var err error
		if all[i], err = run(); err != nil {
			return nil, ReportRow{}, err
		}
	}
	wall := time.Since(start)
	m1, b1 := mem()
	n := uint64(runs)
	return all, ReportRow{WallSec: wall.Seconds() / float64(runs),
		AllocsPerOp: (m1 - m0) / n, AllocBytesPerOp: (b1 - b0) / n}, nil
}

// perOp divides the row's host columns over the n operations of one run.
func (r ReportRow) perOp(n int) ReportRow {
	r.WallSec /= float64(n)
	r.AllocsPerOp /= uint64(n)
	r.AllocBytesPerOp /= uint64(n)
	return r
}

// traffic fills the row's traffic columns.
func (r *ReportRow) traffic(t Traffic) {
	r.ModelSec, r.Messages, r.NetBytes, r.Crossings = t.Time.Seconds(), t.Messages, t.Bytes, t.Crossings
	if t.Crossings > 0 {
		r.MsgsPerCrossing = float64(t.Messages) / float64(t.Crossings)
	}
}

// Check compares the deterministic modeled columns of cur against a
// committed baseline snapshot under Diff's column rule. Every baseline row
// must be present in cur with identical deterministic columns; rows that
// exist only in cur are new experiments and pass.
func Check(baseline, cur Report) error {
	if baseline.Nodes != cur.Nodes || baseline.Closure != cur.Closure {
		return fmt.Errorf("config mismatch: baseline %d nodes/%d closure, current %d/%d",
			baseline.Nodes, baseline.Closure, cur.Nodes, cur.Closure)
	}
	oldRaw, err := json.Marshal(baseline)
	if err != nil {
		return err
	}
	newRaw, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	diffs, err := Diff(oldRaw, newRaw)
	if err != nil {
		return err
	}
	diffs = slices.DeleteFunc(diffs, func(d string) bool { return strings.HasSuffix(d, onlyNew) })
	if len(diffs) > 0 {
		return fmt.Errorf("modeled columns drifted from baseline:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}

// hostColumns are the report columns that depend on the host's speed;
// Diff skips them.
var hostColumns = map[string]bool{
	"wall_sec": true, "allocs_per_op": true, "alloc_bytes_per_op": true,
	"ttfa_usec": true, "conc_check_sec": true,
}

const onlyNew = ": row only in the new snapshot"

// Diff lists every difference between two report snapshots, column by
// column, for the write-up of a re-baseline: a row in only one of them, or
// a deterministic column whose value changed. It reads the snapshots as
// plain JSON, so it also sees columns the current ReportRow no longer has.
// This is the one rule for which columns are deterministic: host columns
// are skipped, and rows whose traffic depends on a real interleaving are
// compared only on their seed-deterministic columns — concurrent rows on
// the operation counts (conc_*), faulted recover rows on completion
// (rec_sessions), because their retries race real-time deadlines. Two rows
// with one key in a snapshot are an error.
func Diff(oldRaw, newRaw []byte) ([]string, error) {
	type snapshot struct {
		Rows []map[string]any `json:"rows"`
	}
	key := func(r map[string]any) string {
		num := func(col string) float64 { v, _ := r[col].(float64); return v }
		return fmt.Sprintf("%v/%v/%.4f/%d/%d/%d", r["figure"], r["policy"], num("ratio"),
			int(num("closure_bytes")), int(num("session")), int(num("clients")))
	}
	index := func(name string, raw []byte) (map[string]map[string]any, []map[string]any, error) {
		var s snapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, nil, fmt.Errorf("%s snapshot: %w", name, err)
		}
		byKey := make(map[string]map[string]any, len(s.Rows))
		for _, r := range s.Rows {
			if _, dup := byKey[key(r)]; dup {
				return nil, nil, fmt.Errorf("%s snapshot: two rows with key %s", name, key(r))
			}
			byKey[key(r)] = r
		}
		return byKey, s.Rows, nil
	}
	_, oldRows, err := index("old", oldRaw)
	if err != nil {
		return nil, err
	}
	newRows, newOrder, err := index("new", newRaw)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ra := range oldRows {
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
	for _, r := range newOrder {
		if k := key(r); newRows[k] != nil {
			out = append(out, k+onlyNew)
		}
	}
	return out, nil
}
