package harness

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// TestRunCfgSingleFlight is the regression test for the concurrent
// double-execution bug: N goroutines racing RunCfg on the same memo key all
// used to pass the cache check before any of them finished, so the identical
// simulation executed N times (and raced to journal the result). With
// single-flight memoisation exactly one leader simulates; every racer gets
// the leader's result, and the journal holds exactly one record.
func TestRunCfgSingleFlight(t *testing.T) {
	// The race needs real parallelism: under GOMAXPROCS=1 the callers can
	// serialise by accident and the pre-fix code passes vacuously.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	r := tinyRunner()
	j, err := OpenJournal(t.TempDir() + "/flight.jsonl")
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	defer j.Close()
	r.AttachJournal(j)

	const callers = 8
	results := make([]*sim.Result, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // all callers hit the memo check together
			results[i], errs[i] = r.Run(context.Background(), "S2", sim.Baseline{})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("caller %d: nil result", i)
		}
		if results[i] != results[0] {
			t.Errorf("caller %d got a different result object than caller 0", i)
		}
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("Executions() = %d, want 1 (same-key racers must share one run)", got)
	}
	if got := j.Len(); got != 1 {
		t.Errorf("journal Len() = %d, want 1", got)
	}
	if err := j.Err(); err != nil {
		t.Errorf("journal write error: %v", err)
	}

	// A later same-key call is a plain memo hit: still one execution.
	if _, err := r.Run(context.Background(), "S2", sim.Baseline{}); err != nil {
		t.Fatalf("memo-hit run: %v", err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("Executions() after memo hit = %d, want 1", got)
	}
}

// TestRunProbeSingleFlight is the regression test for RunProbe's missing
// dedup: it checked probeCache and then executed without joining the
// in-flight table, so four concurrent RunProbe("S2") calls ran four
// simulations. Routed through the same single-flight as RunCfg, the four
// callers share one execution and one result.
func TestRunProbeSingleFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	r := tinyRunner()
	const callers = 4
	results := make([]*ProbeResult, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = r.RunProbe(context.Background(), "S2")
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i] != results[0] {
			t.Errorf("caller %d got result %p, caller 0 got %p; want one shared result", i, results[i], results[0])
		}
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("Executions() = %d, want 1 (concurrent same-bench probes must share one run)", got)
	}
	if _, err := r.RunProbe(context.Background(), "S2"); err != nil {
		t.Fatalf("memo-hit probe: %v", err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("Executions() after memo hit = %d, want 1", got)
	}
}
