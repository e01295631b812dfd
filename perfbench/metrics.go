package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef is one reported metric. Moves records, for a per-layer metric,
// which end-to-end metric on which workload it should move; for an
// end-to-end metric it says what the number is.
type metricDef struct {
	Name  string
	Unit  string
	Moves string
}

// endToEnd are the metrics a user of the simulator sees, printed with
// tracing off. Every workload reports every one of them, so each is defined
// for a sim-only pass and for a served traffic mix alike. Host time is the
// process's CPU time (see cpuSeconds).
var endToEnd = []metricDef{
	{"setup_s", "s", "median CPU time of the workload's set-up repetitions: kernel build, machine construction, store open, server start, twin calibration and a warm-up run"},
	{"sim_cycles_per_cpu_s", "cycles/cpu-s", "simulated GPU cycles per CPU second over the measured passes (serve-mixed: cycles of the never-seen points it simulated)"},
	{"points_per_cpu_s", "points/cpu-s", "simulation points answered per CPU second over the measured passes"},
	{"alloc_mb", "MB", "heap bytes allocated per pass, averaged over the measured passes"},
	{"heap_peak_mb", "MB", "peak live heap (as marked by the latest GC) during a pass, read from runtime/metrics every millisecond; median over passes"},
	{"busy_cores", "cores", "CPU seconds per wall second of a pass, median over passes: falls when work waits (fsync, locks, queues) or loses parallelism, which the CPU-time rates do not see"},
	{"lb_speedup_gm", "ratio", "paired geometric mean of Linebacker IPC over baseline IPC in the first two passes (serve-mixed: in its seeded warm-up sweep); a pure function of the seed"},
}

// perLayer are the attribution metrics, printed by the traced run.
var perLayer = []metricDef{
	{"sim.step_share", "share", "sim_cycles_per_cpu_s on paper-fig12; stays near 1 on fast-golden"},
	{"sim.loop_share", "share", "sim_cycles_per_cpu_s on paper-fig12; stays small on fast-golden"},
	{"sim.dispatch_share", "share", "sim_cycles_per_cpu_s on both sim workloads"},
	{"sim.sm_share", "share", "sim_cycles_per_cpu_s on fast-golden"},
	{"sim.l2_share", "share", "sim_cycles_per_cpu_s on paper-fig12"},
	{"sim.dram_share", "share", "sim_cycles_per_cpu_s on paper-fig12"},
	{"sim.response_share", "share", "sim_cycles_per_cpu_s on paper-fig12"},
	{"sim.stage_loop_share", "share", "sim_cycles_per_cpu_s on fast-golden: the run loop and per-tick event probe outside the five stages"},
	{"sim.ns_per_ticked_cycle", "ns", "sim_cycles_per_cpu_s on fast-golden"},
	{"sim.ticked_cycles", "count", "sim_cycles_per_cpu_s on paper-fig12"},
	{"sim.skipped_share", "share", "sim_cycles_per_cpu_s on paper-fig12"},
	{"sim.slept_sm_share", "share", "sim_cycles_per_cpu_s on paper-fig12"},
	{"sim.trace_overhead.checker", "ratio", "none: cost of the checker-only traced pass"},
	{"sim.trace_overhead.stage", "ratio", "none: cost of the stage traced pass"},
	{"sim.trace_overhead.policy", "ratio", "none: cost of the policy-wrapper traced pass"},
	{"policy.hook_share", "share", "sim_cycles_per_cpu_s on paper-fig12; near zero on fast-golden"},
	{"policy.calls", "count", "sim_cycles_per_cpu_s on paper-fig12"},
	{"policy.victim_hit_share", "share", "lb_speedup_gm on paper-fig12"},
	{"cache.l1_load_accesses", "count", "lb_speedup_gm on both sim workloads"},
	{"cache.l1_hit_share", "share", "lb_speedup_gm on both sim workloads"},
	{"cache.l1_mshr_stalls", "count", "lb_speedup_gm on both sim workloads"},
	{"cache.l2_hit_share", "share", "lb_speedup_gm on paper-fig12"},
	{"cache.reg_hit_share", "share", "lb_speedup_gm on paper-fig12"},
	{"dram.bytes_per_kcycle", "B/kcycle", "lb_speedup_gm on paper-fig12"},
	{"dram.row_hit_share", "share", "lb_speedup_gm on paper-fig12"},
	{"dram.busy_share", "share", "lb_speedup_gm on paper-fig12"},
	{"dram.reg_traffic_share", "share", "lb_speedup_gm on paper-fig12"},
	{"harness.exec_per_point", "ratio", "points_per_cpu_s on serve-mixed; sim_cycles_per_cpu_s via Best-SWL on paper-fig12"},
	{"serve.sweep_new_s_p50", "s", "points_per_cpu_s on serve-mixed"},
	{"serve.sweep_new_s_p90", "s", "points_per_cpu_s on serve-mixed"},
	{"serve.sweep_hit_ms_p50", "ms", "points_per_cpu_s on serve-mixed"},
	{"serve.sweep_hit_ms_p90", "ms", "points_per_cpu_s on serve-mixed"},
	{"serve.estimate_ms_p50", "ms", "points_per_cpu_s on serve-mixed"},
	{"serve.estimate_ms_p99", "ms", "points_per_cpu_s on serve-mixed"},
	{"serve.first_point_s_p50", "s", "serve.sweep_new_s_* and points_per_cpu_s on serve-mixed"},
	{"serve.estimate_overhead_us", "us", "serve.estimate_ms_* on serve-mixed"},
	{"store.open_s", "s", "setup_s on serve-mixed"},
	{"store.put_ms_p50", "ms", "serve.sweep_new_s_* and points_per_cpu_s on serve-mixed"},
	{"store.put_ms_p90", "ms", "serve.sweep_new_s_* and points_per_cpu_s on serve-mixed"},
	{"store.get_us_p50", "us", "serve.sweep_hit_ms_* on serve-mixed"},
	{"store.compact_ms", "ms", "none on the measured passes: compaction runs offline"},
	{"store.bytes_per_entry", "B", "serve.sweep_new_s_* on serve-mixed"},
	{"twin.calibrate_s", "s", "setup_s on serve-mixed"},
	{"twin.estimate_us_p50", "us", "serve.estimate_ms_* on serve-mixed"},
	{"runtime.gc_cpu_share", "share", "sim_cycles_per_cpu_s and alloc_mb on every workload"},
}

// report collects one run's metric values plus the sample count behind
// each percentile.
type report struct {
	values  map[string]float64
	samples map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setPct records a percentile together with its sample count.
func (r *report) setPct(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// resultLine is the final line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints a human-readable table of defs and then the result line. It
// refuses a report that lacks one of defs or carries a name outside them,
// so the printed set is exactly the declared set.
func emit(w io.Writer, defs []metricDef, r *report, attempted, failed int64) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	for name := range r.values {
		if !known[name] {
			return fmt.Errorf("metric %q is not declared", name)
		}
	}
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", d.Name, v)
		}
		n := ""
		if c, ok := r.samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-9s%s\n", d.Name, v, d.Unit, n)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// median returns the middle of xs (the mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geoMean returns the geometric mean of positive values; 0 if any is not
// positive or xs is empty.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share is a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Runtime metrics read between operations and around passes.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmHeapLive   = "/gc/heap/live:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// runtimeSnap is one reading of the runtime counters the benchmark uses.
type runtimeSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler records the largest live heap a background reader sees
// while a pass runs. Live bytes (what the latest GC marked) rather than
// in-use bytes, and a reading every millisecond rather than only between
// operations, keep the peak steady: in-use bytes sampled at a
// paper-fig12 pass's fifteen operation boundaries land at random points
// of the GC cycle.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: rmHeapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the reader and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}
