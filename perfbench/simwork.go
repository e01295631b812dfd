package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// simPoint is one simulation the benchmark runs directly through sim.New
// and GPU.RunCtx: a benchmark kernel under a policy on a machine for a
// fixed number of cycles.
type simPoint struct {
	key    string // "BENCH|scheme", the golden-grid key form
	bench  string
	cfg    config.Config
	cycles int64
	policy func() sim.Policy
}

// newMachine builds the point's GPU.
func (p simPoint) newMachine(pol sim.Policy) (*sim.GPU, error) {
	b, ok := workload.ByName(p.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", p.bench)
	}
	return sim.New(p.cfg, b.Kernel, pol)
}

// lbRatios pairs every "B|lb" result with its "B|baseline" result and
// returns the IPC ratios in key order.
func lbRatios(keys []string, res []*sim.Result) []float64 {
	byKey := map[string]*sim.Result{}
	for i, k := range keys {
		byKey[k] = res[i]
	}
	var out []float64
	for _, k := range keys {
		bench, scheme, _ := strings.Cut(k, "|")
		if scheme != "lb" {
			continue
		}
		base, ok := byKey[bench+"|baseline"]
		if !ok || base.IPC() == 0 {
			continue
		}
		out = append(out, byKey[k].IPC()/base.IPC())
	}
	return out
}

// simCycles sums Result.Cycles.
func simCycles(res []*sim.Result) int64 {
	var n int64
	for _, r := range res {
		n += r.Cycles
	}
	return n
}

// fastGolden is the committed golden grid: every Table 2 benchmark under
// baseline and Linebacker on the 4-SM fast machine at the golden run
// length, each point a fresh sim.New + RunCtx.
type fastGolden struct {
	env     *env
	windows int      // run length; the golden grid's
	benches []string // nil: every Table 2 benchmark
	points  []simPoint
	first   []*sim.Result // pass 0 results, the reference for later passes
}

func (w *fastGolden) setup(ctx context.Context) error {
	cfg := harness.BenchConfig()
	cfg.Seed = w.env.seed
	mks := check.GoldenSchemes()
	benches := w.benches
	if benches == nil {
		benches = workload.Names()
	}
	for _, b := range benches {
		for _, scheme := range []string{"baseline", "lb"} {
			w.points = append(w.points, simPoint{key: b + "|" + scheme, bench: b, cfg: cfg,
				cycles: int64(w.windows) * int64(cfg.LB.WindowCycles), policy: mks[scheme]})
		}
	}
	// Build every machine once (kernel construction and SM/cache
	// allocation), then warm up on one full point.
	for _, p := range w.points {
		if _, err := p.newMachine(p.policy()); err != nil {
			return err
		}
	}
	g, err := w.points[0].newMachine(w.points[0].policy())
	if err != nil {
		return err
	}
	_, err = g.RunCtx(ctx, w.points[0].cycles)
	return err
}

func (w *fastGolden) pass(ctx context.Context, i int, ps *passStats) error {
	// One point at a time: two simulations side by side in one process
	// slow each other (shared heap, GC and caches) by an amount that
	// changes from run to run, which spreads the CPU-time rates. The
	// simulator itself runs each point serially (GPU.Workers 1).
	res := make([]*sim.Result, len(w.points))
	for k, p := range w.points {
		g, err := p.newMachine(p.policy())
		if err != nil {
			return err
		}
		if _, err := g.RunCtx(ctx, p.cycles); err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		res[k] = g.Collect()
	}
	keys := make([]string, len(w.points))
	for k, p := range w.points {
		keys[k] = p.key
		w.checkPoint(i, k, p, res[k])
	}
	if i == 0 {
		w.first = res
	}
	ps.points = int64(len(res))
	ps.simCycles = simCycles(res)
	ps.lbRatios = lbRatios(keys, res)
	return nil
}

// checkPoint verifies one result: exactly the golden metrics at seed 1,
// and at every seed bit-identical to the first pass.
func (w *fastGolden) checkPoint(pass, k int, p simPoint, r *sim.Result) {
	var bad []string
	if w.env.seed == 1 && w.windows == w.env.golden.Windows {
		if want, got := w.env.golden.Entries[p.key], check.MetricsOf(r); got != want {
			bad = append(bad, fmt.Sprintf("metrics %+v differ from golden %+v", got, want))
		}
	}
	if pass > 0 && !reflect.DeepEqual(r, w.first[k]) {
		bad = append(bad, fmt.Sprintf("pass %d result differs from pass 0", pass))
	}
	if r.Instructions <= 0 {
		bad = append(bad, "retired nothing")
	}
	w.env.tally.record("fast-golden "+p.key, bad)
}

func (w *fastGolden) perLayer(ctx context.Context, rep *report) error {
	keys := make([]string, len(w.points))
	for k, p := range w.points {
		keys[k] = p.key
	}
	return simLayers(ctx, w.env, w.points, w.first, keys, w.first, rep)
}

// simLayers fills the per-layer metrics of a workload that drives the
// simulator without the service: the traced passes over points (whose
// untraced answers are expect), the cache and DRAM counts and the store
// replay over the workload's results. Every point is exactly one
// simulation (paper-fig12 checks its runner's executions per pass).
func simLayers(ctx context.Context, e *env, points []simPoint, expect []*sim.Result, keys []string, res []*sim.Result, rep *report) error {
	if err := traceSim(ctx, e, points, expect, rep); err != nil {
		return err
	}
	resultCounts(res, rep)
	rep.set("harness.exec_per_point", 1)
	notServed(rep)
	dir := filepath.Join(e.workDir, "results")
	if err := commitResults(dir, keys, res); err != nil {
		return err
	}
	return storeProbe(e, dir, rep)
}

func (w *fastGolden) close() {}

// paperFig12 is Figure 12's policy set for S2 through harness.Runner on
// the 16-SM Table 1 machine: baseline, the Best-SWL sweep, PCAL, CERF and
// Linebacker, on a fresh runner per pass so nothing is memoised across
// passes.
type paperFig12 struct {
	env     *env
	windows int // run length in monitoring windows
	cfg     config.Config
	first   []*sim.Result
	keys    []string
	best    int
}

const (
	fig12Bench   = "S2"
	fig12Windows = 4
)

// swlLimits mirrors the harness's Best-SWL candidate list for a residency
// bound. The pass re-reads every sweep point through the runner's memo and
// fails if that re-read executes anything, so a drift between this list
// and the harness's shows up as a failed check, not as silently wrong
// numbers.
func swlLimits(maxResident int) []int {
	var out []int
	for _, c := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		if c < maxResident {
			out = append(out, c)
		}
	}
	return append(out, maxResident)
}

func (w *paperFig12) setup(ctx context.Context) error {
	w.cfg = harness.PaperConfig()
	w.cfg.Seed = w.env.seed
	b, ok := workload.ByName(fig12Bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", fig12Bench)
	}
	for _, pol := range []sim.Policy{sim.Baseline{}, schemes.PCAL{}, schemes.CERF{}, core.New()} {
		if _, err := sim.New(w.cfg, b.Kernel, pol); err != nil {
			return err
		}
	}
	_, err := harness.NewRunner(w.cfg, 1).Run(ctx, fig12Bench, sim.Baseline{})
	return err
}

func (w *paperFig12) pass(ctx context.Context, i int, ps *passStats) error {
	r := harness.NewRunner(w.cfg, w.windows)
	keys := []string{fig12Bench + "|baseline", fig12Bench + "|pcal", fig12Bench + "|cerf", fig12Bench + "|lb"}
	var all []*sim.Result
	run := func(pol sim.Policy) error {
		res, err := r.Run(ctx, fig12Bench, pol)
		all = append(all, res)
		return err
	}
	if err := run(sim.Baseline{}); err != nil {
		return err
	}
	best, bestRes, err := r.BestSWL(ctx, fig12Bench)
	if err != nil {
		return err
	}
	for _, pol := range []sim.Policy{schemes.PCAL{}, schemes.CERF{}, core.New()} {
		if err := run(pol); err != nil {
			return err
		}
	}
	execs := r.Executions()

	// Re-read the sweep through the memo: the full point list of the pass.
	b, _ := workload.ByName(fig12Bench)
	bestIPC := 0.0
	for _, lim := range swlLimits(sim.MaxResidentCTAs(&w.cfg.GPU, b.Kernel)) {
		if err := run(schemes.SWL{Limit: lim}); err != nil {
			return err
		}
		keys = append(keys, fmt.Sprintf("%s|swl:%d", fig12Bench, lim))
		bestIPC = max(bestIPC, all[len(all)-1].IPC())
	}

	// Every requested point executed exactly once, Best-SWL picked the
	// sweep's best IPC, and the pass is bit-identical to the first.
	var bad []string
	if execs != int64(len(all)) || r.Executions() != execs {
		bad = append(bad, fmt.Sprintf("%d executions (%d after the memo re-read) for %d points", execs, r.Executions(), len(all)))
	}
	if bestRes.IPC() != bestIPC {
		bad = append(bad, fmt.Sprintf("Best-SWL limit %d has IPC %v, the sweep's best is %v", best, bestRes.IPC(), bestIPC))
	}
	for k, res := range all {
		if res.Instructions <= 0 {
			bad = append(bad, keys[k]+" retired nothing")
		}
	}
	if i > 0 && (best != w.best || !reflect.DeepEqual(all, w.first)) {
		bad = append(bad, "results differ from pass 0")
	}
	w.env.tally.record(fmt.Sprintf("paper-fig12 pass %d", i), bad)
	if i == 0 {
		w.first, w.keys, w.best = all, keys, best
	}
	ps.points = int64(len(all))
	ps.simCycles = simCycles(all)
	ps.lbRatios = lbRatios(keys, all)
	return nil
}

func (w *paperFig12) perLayer(ctx context.Context, rep *report) error {
	// Trace the policies the figure plots: baseline, the chosen Best-SWL
	// limit, PCAL, CERF and Linebacker.
	cycles := int64(w.windows) * int64(w.cfg.LB.WindowCycles)
	pt := func(key string, pol func() sim.Policy) simPoint {
		return simPoint{key: key, bench: fig12Bench, cfg: w.cfg, cycles: cycles, policy: pol}
	}
	points := []simPoint{
		pt(w.keys[0], func() sim.Policy { return sim.Baseline{} }),
		pt(w.keys[1], func() sim.Policy { return schemes.PCAL{} }),
		pt(w.keys[2], func() sim.Policy { return schemes.CERF{} }),
		pt(w.keys[3], func() sim.Policy { return core.New() }),
	}
	expect := append([]*sim.Result(nil), w.first[:4]...)
	for k := 4; k < len(w.keys); k++ {
		if w.keys[k] == fmt.Sprintf("%s|swl:%d", fig12Bench, w.best) {
			lim := w.best
			points = append(points, pt(w.keys[k], func() sim.Policy { return schemes.SWL{Limit: lim} }))
			expect = append(expect, w.first[k])
		}
	}
	return simLayers(ctx, w.env, points, expect, w.keys, w.first, rep)
}

func (w *paperFig12) close() {}

// resultCounts derives the cache and DRAM per-layer metrics from results.
// They are deterministic counts: a pure function of the seed.
func resultCounts(res []*sim.Result, rep *report) {
	var l1Acc, l1Hits, mshr, l2Acc, l2Hits, loads, regHits float64
	var bytes, reg, rowHits, rowAcc, busy, cycles float64
	for _, r := range res {
		l1Acc += float64(r.L1.TotalLoadAccesses())
		l1Hits += float64(r.L1.LoadHits)
		mshr += float64(r.L1.MSHRStalls)
		l2Acc += float64(r.L2.TotalLoadAccesses())
		l2Hits += float64(r.L2.LoadHits)
		loads += float64(r.TotalLoadReqs())
		regHits += float64(r.Loads[sim.OutRegHit])
		bytes += float64(r.DRAM.TotalBytes())
		reg += float64(r.DRAM.RegBackupBytes + r.DRAM.RegRestoreBytes)
		rowHits += float64(r.DRAM.RowHits)
		rowAcc += float64(r.DRAM.RowHits + r.DRAM.RowMisses)
		busy += float64(r.DRAM.BusyCycles)
		cycles += float64(r.Cycles)
	}
	rep.set("cache.l1_load_accesses", l1Acc)
	rep.set("cache.l1_hit_share", share(l1Hits, l1Acc))
	rep.set("cache.l1_mshr_stalls", mshr)
	rep.set("cache.l2_hit_share", share(l2Hits, l2Acc))
	rep.set("cache.reg_hit_share", share(regHits, loads))
	rep.set("dram.bytes_per_kcycle", 1000*share(bytes, cycles))
	rep.set("dram.row_hit_share", share(rowHits, rowAcc))
	rep.set("dram.busy_share", share(busy, cycles))
	rep.set("dram.reg_traffic_share", share(reg, bytes))
}

// notServed records the serve and twin metrics of a workload that does not
// run the service: zero work, so zero time.
func notServed(rep *report) {
	for _, name := range []string{
		"serve.sweep_new_s_p50", "serve.sweep_new_s_p90", "serve.sweep_hit_ms_p50",
		"serve.sweep_hit_ms_p90", "serve.estimate_ms_p50", "serve.estimate_ms_p99",
		"serve.first_point_s_p50", "serve.estimate_overhead_us",
		"twin.calibrate_s", "twin.estimate_us_p50",
	} {
		rep.setPct(name, 0, 0)
	}
}
