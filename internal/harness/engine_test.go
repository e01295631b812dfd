package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// The acceptance tests of the fault-tolerant run engine: one injected
// fault (panic, DRAM livelock, cancellation) must terminate a full
// 20-benchmark sweep promptly, report exactly the faulted point as a
// *RunError, and leave every other benchmark's metrics bit-identical to
// the committed golden snapshot.

const acceptGoldenPath = "../check/testdata/golden.json"

// acceptWindows must match the golden snapshot's capture length.
const acceptWindows = 3

var (
	acceptOnce   sync.Once
	acceptRunner *Runner
	acceptGolden *check.Snapshot
	acceptErr    error
)

// acceptSetup shares one runner (and the loaded golden snapshot) across the
// acceptance tests so the 19 clean benchmarks simulate once and memoise.
func acceptSetup(t *testing.T) (*Runner, *check.Snapshot) {
	t.Helper()
	if testing.Short() {
		t.Skip("acceptance sweeps run all 20 benchmarks; skipped in -short")
	}
	acceptOnce.Do(func() {
		acceptRunner = NewRunner(BenchConfig(), acceptWindows)
		acceptGolden, acceptErr = check.LoadSnapshot(acceptGoldenPath)
	})
	if acceptErr != nil {
		t.Fatalf("loading golden snapshot: %v", acceptErr)
	}
	return acceptRunner, acceptGolden
}

// assertSweepMatchesGolden requires that every benchmark except victim
// succeeded with metrics exactly equal to the golden baseline entries.
func assertSweepMatchesGolden(t *testing.T, s *Sweep, results map[string]*sim.Result, golden *check.Snapshot, victim string) {
	t.Helper()
	for i, bench := range s.Benches {
		if bench == victim {
			continue
		}
		if s.Errs[i] != nil {
			t.Errorf("clean benchmark %s failed: %v", bench, s.Errs[i])
			continue
		}
		want, ok := golden.Entries[bench+"|baseline"]
		if !ok {
			t.Fatalf("golden snapshot has no entry for %s|baseline", bench)
		}
		if got := check.MetricsOf(results[bench]); got != want {
			t.Errorf("%s: metrics diverged from golden\n  golden %+v\n  got    %+v", bench, want, got)
		}
	}
}

// runFaultSweep sweeps every benchmark under baseline, applying chaosFor's
// config (and optionally a dedicated runner) to the victim benchmark only.
func runFaultSweep(r *Runner, victimRunner *Runner, victim string, chaosCfg config.Chaos) (*Sweep, map[string]*sim.Result) {
	var mu sync.Mutex
	results := map[string]*sim.Result{}
	s := r.ForEachBench(context.Background(), func(ctx context.Context, bench string) (float64, error) {
		rr, cfg := r, r.Cfg
		if bench == victim {
			rr = victimRunner
			cfg = victimRunner.Cfg
			cfg.Chaos = chaosCfg
		}
		res, err := rr.RunCfg(ctx, cfg, "", bench, sim.Baseline{})
		if err != nil {
			return 0, err
		}
		mu.Lock()
		results[bench] = res
		mu.Unlock()
		return res.IPC(), nil
	})
	return s, results
}

func TestAcceptanceChaosPanicSweep(t *testing.T) {
	r, golden := acceptSetup(t)
	victim := workload.Names()[0]

	s, results := runFaultSweep(r, r, victim, config.Chaos{
		Enabled: true, Seed: 1, PanicStage: "sm", PanicCycle: 1000,
	})

	if failed := s.Failed(); len(failed) != 1 || failed[0] != victim {
		t.Fatalf("failed points = %v, want exactly [%s]", failed, victim)
	}
	var re *RunError
	if !errors.As(s.Err(), &re) {
		t.Fatalf("sweep error %T does not chain a *RunError: %v", s.Err(), s.Err())
	}
	if re.Bench != victim {
		t.Errorf("RunError names bench %q, want %q", re.Bench, victim)
	}
	if !errors.Is(re, ErrPanic) {
		t.Errorf("chaos panic not classified as ErrPanic: %v", re)
	}
	if !strings.Contains(re.Err.Error(), "chaos: injected panic") {
		t.Errorf("cause does not carry the injected panic message: %v", re.Err)
	}
	if re.Stack == "" {
		t.Error("panic RunError carries no recovered stack")
	}
	if re.Snapshot == "" {
		t.Error("panic RunError carries no machine-state snapshot")
	}
	assertSweepMatchesGolden(t, s, results, golden, victim)
}

func TestAcceptanceWatchdogLivelockSweep(t *testing.T) {
	r, golden := acceptSetup(t)
	victim := workload.Names()[1]

	// The victim runs to completion (Windows=0): with DRAM frozen its warps
	// can never finish, cycles keep retiring with zero commits — a true
	// livelock only the forward-progress watchdog can end.
	wd := NewRunner(r.Cfg, 0)
	wd.WatchdogTick = 25 * time.Millisecond
	wd.Timeout = 30 * time.Second // backstop so a broken watchdog cannot hang the suite

	s, results := runFaultSweep(r, wd, victim, config.Chaos{
		Enabled: true, Seed: 1, StallDRAMCycle: 1000,
	})

	if failed := s.Failed(); len(failed) != 1 || failed[0] != victim {
		t.Fatalf("failed points = %v, want exactly [%s]", failed, victim)
	}
	var re *RunError
	if !errors.As(s.Err(), &re) {
		t.Fatalf("sweep error %T does not chain a *RunError: %v", s.Err(), s.Err())
	}
	if !errors.Is(re, ErrWatchdog) {
		t.Fatalf("livelocked run not aborted by the watchdog: %v", re)
	}
	if re.Phase != PhaseRun || re.Cycle == 0 {
		t.Errorf("watchdog RunError phase/cycle = %s/%d, want run/>0", re.Phase, re.Cycle)
	}
	if !strings.Contains(re.Snapshot, "dram") {
		t.Errorf("state dump missing DRAM diagnostics:\n%s", re.Snapshot)
	}
	assertSweepMatchesGolden(t, s, results, golden, victim)
}

func TestAcceptanceCancellationSweep(t *testing.T) {
	_, golden := acceptSetup(t)
	victim := workload.Names()[2]

	// A private runner with an empty memo: the shared one may already hold
	// the victim's clean result, and a memo hit would (correctly) satisfy
	// the run before cancellation is ever consulted.
	r := NewRunner(BenchConfig(), acceptWindows)

	// Attach a journal so the test can also prove a cancelled run leaves no
	// partial checkpoint behind.
	j, err := OpenJournal(t.TempDir() + "/sweep.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r.AttachJournal(j)

	victimCtx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the victim ever starts

	var mu sync.Mutex
	results := map[string]*sim.Result{}
	s := r.ForEachBench(context.Background(), func(ctx context.Context, bench string) (float64, error) {
		if bench == victim {
			ctx = victimCtx
		}
		res, err := r.RunCfg(ctx, r.Cfg, "", bench, sim.Baseline{})
		if err != nil {
			return 0, err
		}
		mu.Lock()
		results[bench] = res
		mu.Unlock()
		return res.IPC(), nil
	})

	if failed := s.Failed(); len(failed) != 1 || failed[0] != victim {
		t.Fatalf("failed points = %v, want exactly [%s]", failed, victim)
	}
	var re *RunError
	if !errors.As(s.Err(), &re) {
		t.Fatalf("sweep error %T does not chain a *RunError: %v", s.Err(), s.Err())
	}
	if !errors.Is(re, context.Canceled) {
		t.Errorf("cancelled run does not chain context.Canceled: %v", re)
	}
	assertSweepMatchesGolden(t, s, results, golden, victim)

	// Determinism of recovery: the cancelled point must leave no memo or
	// journal entry, and a clean re-run must still reproduce the golden
	// metrics exactly — cancellation can never mask nondeterminism.
	r.mu.Lock()
	for key := range r.cache {
		if strings.Contains(key, "|"+victim+"|") {
			t.Errorf("cancelled run left memo entry %q", key)
		}
	}
	r.mu.Unlock()
	for key := range j.Entries() {
		if strings.Contains(key, "|"+victim+"|") {
			t.Errorf("cancelled run left journal entry %q", key)
		}
	}

	res, err := r.RunCfg(context.Background(), r.Cfg, "", victim, sim.Baseline{})
	if err != nil {
		t.Fatalf("clean re-run of cancelled point failed: %v", err)
	}
	want := golden.Entries[victim+"|baseline"]
	if got := check.MetricsOf(res); got != want {
		t.Errorf("re-run after cancellation diverged from golden\n  golden %+v\n  got    %+v", want, got)
	}
}

func TestTimeoutAbortsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timeout test simulates until the deadline")
	}
	cfg := BenchConfig()
	cfg.GPU.NumSMs = 1
	r := NewRunner(cfg, 0) // run to completion: long enough to hit the deadline
	r.Timeout = time.Millisecond

	_, err := r.Run(context.Background(), "S2", sim.Baseline{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline overrun not classified ErrTimeout: %v", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Phase != PhaseRun {
		t.Fatalf("timeout error = %+v, want *RunError in run phase", err)
	}
}

// TestRetiredChaosStageRejected pins the fate of the "sm-worker" chaos
// stage, which no longer exists: an old spec naming it fails ParseSpec, and
// a config carrying it (as a hand-built or persisted one might) fails
// validation with ErrBadConfig. Both errors name the valid stages.
func TestRetiredChaosStageRejected(t *testing.T) {
	const spec = "panic:sm-worker:1000"
	stages := fmt.Sprint(config.ChaosStages)
	if _, err := chaos.ParseSpec(spec); err == nil {
		t.Fatalf("ParseSpec(%q) accepted a retired stage", spec)
	} else if !strings.Contains(err.Error(), stages) {
		t.Errorf("ParseSpec(%q) error does not name the valid stages %s: %v", spec, stages, err)
	}

	cfg := BenchConfig()
	cfg.Chaos = config.Chaos{Enabled: true, Seed: 1, PanicStage: "sm-worker", PanicCycle: 1000}
	_, err := NewRunner(cfg, 2).Run(context.Background(), "S2", sim.Baseline{})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("run with PanicStage sm-worker: error %v, want ErrBadConfig", err)
	}
	if !strings.Contains(err.Error(), stages) {
		t.Errorf("ErrBadConfig does not name the valid stages %s: %v", stages, err)
	}
}
