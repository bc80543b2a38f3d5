package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// unitOf declares every metric the benchmark emits, by its normative
// name, with its unit. BENCHMARK.json repeats the names (and adds bounds
// to the end-to-end ones); bench_test.go holds the two in step.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"fault_us_p50", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// perLayerTraced come from the traced pass of one workload (source A).
var perLayerTraced = [][2]string{
	{"core.visit_resident_ns", "ns"},
	{"core.fault_client_self_us", "us"},
	{"core.serve_fetch_us", "us"},
	{"core.serve_validate_us", "us"},
	{"core.enc_cache_hit_ratio", "ratio"},
	{"core.serve_invalidate_ms", "ms"},
	{"core.end_session_ms", "ms"},
	{"core.begin_session_us", "us"},
	{"core.call_ms", "ms"},
	{"core.handler_ms", "ms"},
	{"core.call_overhead_us", "us"},
	{"transport.fetch_rtt_self_us", "us"},
	{"transport.validate_rtt_self_us", "us"},
	{"transport.send_us", "us"},
	{"transport.msgs_per_op", "count"},
	{"transport.payload_kb_per_op", "KiB"},
	{"transport.msgs_per_op.call", "count"},
	{"transport.msgs_per_op.fetch", "count"},
	{"transport.msgs_per_op.validate", "count"},
	{"transport.msgs_per_op.invalidate", "count"},
	{"transport.msgs_per_op.write-back", "count"},
	{"model_ms_per_op", "ms"},
	{"core.faults_per_op", "count"},
	{"core.fetches_per_op", "count"},
	{"core.items_installed_per_op", "count"},
	{"core.kb_installed_per_op", "KiB"},
	{"core.coh_kb_per_op", "KiB"},
	{"core.coh_delta_items_per_op", "count"},
	{"core.coh_items_skipped_per_op", "count"},
	{"core.revalidate_hits_per_op", "count"},
	{"core.revalidate_misses_per_op", "count"},
	{"core.revalidate_kb_per_op", "KiB"},
	{"core.retries_per_op", "count"},
	{"core.stale_reply_drops_per_op", "count"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.unattributed_pct", "%"},
	{"harness.visit_overhead_ns", "ns"},
	{"harness.gc_cycles_per_op", "count"},
	{"harness.gc_pause_us_per_op", "us"},
	{"harness.op_ms_p90", "ms"},
	{"harness.fault_us_p99", "us"},
}

// perLayerDrivers come from the layer drivers (source B), once per run.
var perLayerDrivers = [][2]string{
	{"vmem.read_ns", "ns"},
	{"vmem.write_ns", "ns"},
	{"vmem.fault_dispatch_ns", "ns"},
	{"vmem.alloc_ns", "ns"},
	{"swizzle.hit_ns", "ns"},
	{"swizzle.miss_ns", "ns"},
	{"swizzle.unswizzle_ns", "ns"},
	{"core.deref_local_ns", "ns"},
	{"types.layout_ns", "ns"},
	{"xdr.encode_node_ns", "ns"},
	{"xdr.decode_node_ns", "ns"},
	{"wire.encode_closure_us", "us"},
	{"wire.decode_closure_us", "us"},
	{"wire.seal_closure_us", "us"},
	{"wire.encode_items_512_us", "us"},
	{"wire.decode_items_512_us", "us"},
	{"wire.allocs_per_frame_closure", "count"},
	{"wire.encode_small_ns", "ns"},
	{"wire.decode_small_ns", "ns"},
	{"transport.local_rtt_small_us", "us"},
	{"transport.local_rtt_closure_us", "us"},
	{"transport.tcp_rtt_small_us", "us"},
	{"transport.tcp_rtt_closure_us", "us"},
	{"transport.tcp_allocs_per_msg", "count"},
	{"core.null_call_local_us", "us"},
	{"core.null_call_tcp_us", "us"},
	{"delta.diff_4k_sparse_us", "us"},
	{"delta.diff_4k_equal_us", "us"},
	{"delta.apply_4k_sparse_us", "us"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a declared name to its value; set panics on a name the
// tables above do not declare, so a typo cannot add a metric.
type metrics map[string]metric

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, table := range [][][2]string{endToEnd, perLayerTraced, perLayerDrivers} {
		for _, d := range table {
			m[d[0]] = d[1]
		}
	}
	return m
}()

func (ms metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	ms[name] = metric{Value: v, Unit: unit}
}

// result is what one run of one workload reports; its JSON form is the
// last line of a driver-mode run.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is one line of an -out file: a result and what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// spec is BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// percentile returns the p-th percentile (0..100) of ns by linear
// interpolation between closest ranks; 0 for an empty series. It sorts a
// copy.
func percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(i)
	return float64(s[i]) + frac*float64(s[i+1]-s[i])
}

func median(ns []int64) float64 { return percentile(ns, 50) }

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method), which
// is how the acceptance rule for this benchmark measures spread. v needs
// two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
