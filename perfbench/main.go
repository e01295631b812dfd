// Command perfbench is the repository's benchmark. It runs one named
// workload for about a given host time (serve-mixed: a pass count fixed by
// that time), checks every output, and prints the end-to-end metrics
// (tracing off) or, with --trace 1, the per-layer attribution from
// separate traced passes. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (run.sh builds and starts it):
//
//	bash perfbench/run.sh --workload fast-golden --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	fast-golden  the golden grid: 20 benchmarks x {baseline, Linebacker} on
//	             the 4-SM machine, each point a fresh sim.New + RunCtx, one
//	             point at a time
//	paper-fig12  Figure 12's policy set for S2 through harness.Runner on
//	             the 16-SM Table 1 machine
//	serve-mixed  an in-process lbserve over a fresh store with the twin tier
//	             on, driven by closed-loop HTTP clients mixing new sweeps,
//	             re-requested sweeps and twin estimates
//
// The seed reaches only the input generators: the simulated kernels'
// address streams (config Seed) for the sim workloads and the request
// sequence for serve-mixed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
)

// benchWorkload is one benchmark workload. setup is timed and repeated; pass
// runs the workload once in full; perLayer fills the per-layer metrics
// after the measured passes of a traced run.
type benchWorkload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, i int, ps *passStats) error
	perLayer(ctx context.Context, rep *report) error
	close()
}

// fixedPasser is implemented by workloads whose passes differ from one
// another. They run a fixed number of passes instead of passes until the
// time is spent, so that a faster commit is measured on the same work as
// a slower one.
type fixedPasser interface {
	fixedPasses() int
}

// passStats is what one pass reports besides its host time.
type passStats struct {
	points    int64
	simCycles int64
	lbRatios  []float64
}

// env is what every workload shares: inputs, limits and the outcome tally.
type env struct {
	seed    uint64
	procs   int // serve-mixed client goroutines and connections, never more than nproc
	trace   bool
	workDir string
	golden  *check.Snapshot
	tally   *tally
	stderr  io.Writer
}

// tally counts checked operations and failures.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	w                 io.Writer
}

func (t *tally) ok() { t.attempted.Add(1) }

// record counts one checked operation, failed if it has problems.
func (t *tally) record(op string, problems []string) {
	if len(problems) == 0 {
		t.ok()
		return
	}
	t.fail("%s: %s", op, strings.Join(problems, "; "))
}

// fail counts one failed operation and reports the first few on stderr.
func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	if t.failed.Add(1) <= 20 {
		t.mu.Lock()
		fmt.Fprintf(t.w, "perfbench: FAIL: "+format+"\n", args...)
		t.mu.Unlock()
	}
}

const (
	setupReps  = 3 // set-up repetitions; setup_s is their median
	minPasses  = 2 // passes per run, so every pass is checked against the first
	maxClients = 2 // serve-mixed clients, capped at nproc
)

// goldenPath is the committed golden grid, relative to the repository root.
var goldenPath = filepath.Join("internal", "check", "testdata", "golden.json")

var workloadNames = []string{"fast-golden", "paper-fig12", "serve-mixed"}

// factory returns the constructor of the named workload measured for about
// budget.
func factory(name string, e *env, budget time.Duration) (func() benchWorkload, error) {
	switch name {
	case "fast-golden":
		return func() benchWorkload { return &fastGolden{env: e, windows: e.golden.Windows} }, nil
	case "paper-fig12":
		return func() benchWorkload { return &paperFig12{env: e, windows: fig12Windows} }, nil
	case "serve-mixed":
		return func() benchWorkload {
			return &serveMixed{env: e, rounds: serveRounds, estimates: serveEstimates,
				passes: servePasses(budget)}
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "host seconds of measured passes")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from traced passes")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "tmp"), "scratch directory for stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	snap, err := check.LoadSnapshot(goldenPath)
	if err != nil {
		return fmt.Errorf("loading golden grid: %w", err)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t := &tally{w: stderr}
	e := &env{seed: *seed, procs: min(maxClients, runtime.NumCPU()), trace: *trace == 1, workDir: dir,
		golden: snap, tally: t, stderr: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	mk, err := factory(*name, e, budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d clients=%d\n",
		*name, *seed, *seconds, *trace, e.procs)

	rep, err := measure(context.Background(), *name, mk, e, budget)
	if err != nil {
		return err
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	if err := emit(stdout, defs, rep, t.attempted.Load(), t.failed.Load()); err != nil {
		return err
	}
	if t.failed.Load() > 0 {
		return fmt.Errorf("%d of %d checked operations failed", t.failed.Load(), t.attempted.Load())
	}
	return nil
}

// measure sets the workload up setupReps times, keeps the last set-up,
// runs passes until the time is spent (or the workload's fixed number of
// passes), and fills the report.
func measure(ctx context.Context, name string, mk func() benchWorkload, e *env, budget time.Duration) (*report, error) {
	rep := newReport()
	var setups []float64
	var w benchWorkload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		c0 := cpuSeconds()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	defer w.close()

	// Throughput is work over CPU time summed across passes: serve-mixed's
	// passes differ in which benchmarks they simulate, and only its fixed
	// pass count covers its mix evenly.
	fixed := 0
	if fp, ok := w.(fixedPasser); ok {
		fixed = fp.fixedPasses()
	}
	var cycles, points, cpu, alloc float64
	var heapMB, busy []float64
	var lbRatios []float64 // of the first minPasses passes: a function of the seed alone
	before := readRuntime()
	start := time.Now()
	for i := 0; ; i++ {
		var ps passStats
		r0 := readRuntime()
		heap := startHeapSampler()
		c0, t0 := cpuSeconds(), time.Now()
		err := w.pass(ctx, i, &ps)
		c1 := cpuSeconds() - c0
		busy = append(busy, c1/time.Since(t0).Seconds())
		cpu += c1
		peak := heap.finish()
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		r1 := readRuntime()
		cycles += float64(ps.simCycles)
		points += float64(ps.points)
		alloc += float64(r1.allocBytes - r0.allocBytes)
		heapMB = append(heapMB, float64(peak)/1e6)
		if i < minPasses {
			lbRatios = append(lbRatios, ps.lbRatios...)
		}
		if fixed > 0 {
			if i+1 >= fixed {
				break
			}
		} else if i+1 >= minPasses && time.Since(start) >= budget {
			break
		}
	}
	after := readRuntime()
	lb := geoMean(lbRatios)
	if lb == 0 {
		e.tally.fail("%s: no Linebacker/baseline pair in the first %d passes", name, minPasses)
	}
	fmt.Fprintf(e.stderr, "perfbench: %s: %d passes in %.1fs\n", name, len(heapMB), time.Since(start).Seconds())

	if !e.trace {
		rep.set("setup_s", median(setups))
		rep.set("sim_cycles_per_cpu_s", cycles/cpu)
		rep.set("points_per_cpu_s", points/cpu)
		rep.set("alloc_mb", alloc/1e6/float64(len(heapMB)))
		rep.set("heap_peak_mb", median(heapMB))
		rep.set("busy_cores", median(busy))
		rep.set("lb_speedup_gm", lb)
		return rep, nil
	}
	rep.set("runtime.gc_cpu_share", share(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
	if err := w.perLayer(ctx, rep); err != nil {
		return nil, fmt.Errorf("%s traced passes: %w", name, err)
	}
	return rep, nil
}

// cpuSeconds returns the user plus system CPU time the process has used.
// The benchmark measures in CPU time rather than wall time: on a shared
// virtual host, time the hypervisor gives to other guests (steal) stretches
// wall time between runs minutes apart but is not charged to the process.
// Contention from other guests for caches and memory still is.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
