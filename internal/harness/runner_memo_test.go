package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// TestRunCfgNoConfigAliasing is the regression test for the memo-key bug
// where RunCfg keyed runs by (cfgKey, bench, policy-name) only: two
// different configurations sharing a cfgKey silently returned the first
// run's result. The key now embeds a full config fingerprint.
func TestRunCfgNoConfigAliasing(t *testing.T) {
	r := NewRunner(BenchConfig(), 2)

	small := r.Cfg
	small.GPU.L1Bytes = 16 * 1024
	large := r.Cfg
	large.GPU.L1Bytes = 128 * 1024

	// Identical cfgKey ("") and (bench, policy) on purpose.
	resSmall := r.MustRunCfg(small, "", "S2", sim.Baseline{})
	resLarge := r.MustRunCfg(large, "", "S2", sim.Baseline{})

	if resSmall == resLarge {
		t.Fatal("different configs aliased to one memoised result")
	}
	if resSmall.L1.LoadHits == resLarge.L1.LoadHits && resSmall.Cycles == resLarge.Cycles {
		t.Fatal("8x L1 capacity changed nothing; runs likely aliased")
	}

	// Same config twice must still memoise (pointer-identical result).
	if again := r.MustRunCfg(small, "", "S2", sim.Baseline{}); again != resSmall {
		t.Fatal("identical config re-ran instead of hitting the memo")
	}
}

// TestRunCfgKeyIncludesPolicy guards the rest of the key.
func TestRunCfgKeyIncludesPolicy(t *testing.T) {
	r := NewRunner(BenchConfig(), 2)
	a := r.MustRun("S2", sim.Baseline{})
	b := r.MustRun("BI", sim.Baseline{})
	if a == b {
		t.Fatal("different benchmarks aliased")
	}
}

// TestRunProbeUnderFaultBarrier is the regression test for the probe path
// running outside the fault barrier: RunProbe ignored Runner.Timeout (and
// the watchdog, checker and chaos) because it had its own copy of the run
// loop.
func TestRunProbeUnderFaultBarrier(t *testing.T) {
	r := tinyRunner()
	r.Timeout = time.Nanosecond
	_, err := r.RunProbe(context.Background(), "S2")
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("RunProbe err = %T %v, want a *RunError", err, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("RunProbe err = %v, want ErrTimeout", err)
	}
}

// TestRunProbeKeyCarriesConfigAndRunLength is the regression test for the
// probe memo key being the bench name alone: a probe after a change to the
// base config or the run length returned the earlier probe's statistics.
func TestRunProbeKeyCarriesConfigAndRunLength(t *testing.T) {
	r := tinyRunner()
	ctx := context.Background()
	probe := func() {
		t.Helper()
		if _, err := r.RunProbe(ctx, "S2"); err != nil {
			t.Fatal(err)
		}
	}
	probe()
	probe()
	if got := r.Executions(); got != 1 {
		t.Fatalf("repeated probe executed %d times, want 1", got)
	}
	r.Cfg.GPU.L1Bytes *= 2
	probe()
	if got := r.Executions(); got != 2 {
		t.Fatalf("probe after an L1 change executed %d times in total, want 2", got)
	}
	r.Windows++
	probe()
	if got := r.Executions(); got != 3 {
		t.Fatalf("probe after a run-length change executed %d times in total, want 3", got)
	}
}
