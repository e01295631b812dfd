package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	k := tinyKernel(30, 8)
	a, err := New(testConfig(), k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(), k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	ca := a.Run(2_000_000)
	cb, rerr := b.RunCtx(context.Background(), 2_000_000)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if ca != cb {
		t.Fatalf("Run=%d cycles, RunCtx=%d", ca, cb)
	}
	ra, rb := a.Collect(), b.Collect()
	if ra.Instructions != rb.Instructions || ra.L1.LoadHits != rb.L1.LoadHits {
		t.Fatalf("RunCtx diverged from Run: %+v vs %+v", rb, ra)
	}
}

// TestRunCtxResumesAcrossSegments proves a machine can be run in
// segments — the timeline path calls RunCtx once per window — and that
// each call stops exactly at its bound.
func TestRunCtxResumesAcrossSegments(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(400, 48), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	for seg := int64(1); seg <= 3; seg++ {
		if _, err := g.RunCtx(context.Background(), seg*500); err != nil {
			t.Fatal(err)
		}
		if g.Cycle() != seg*500 {
			t.Fatalf("segment %d stopped at cycle %d, want %d", seg, g.Cycle(), seg*500)
		}
	}
}

func TestRunCtxCancelsAtWindowBoundary(t *testing.T) {
	cfg := testConfig()
	g, err := New(cfg, tinyKernel(100000, 64), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("test cause")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	cyc, rerr := g.RunCtx(ctx, 10_000_000)
	if rerr == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(rerr, cause) {
		t.Fatalf("error does not chain the cancellation cause: %v", rerr)
	}
	if !strings.Contains(rerr.Error(), "aborted at cycle") {
		t.Fatalf("error missing abort cycle: %v", rerr)
	}
	// Cancellation is cooperative: the run stops at the first window
	// boundary, never mid-window.
	if cyc == 0 || cyc%int64(cfg.LB.WindowCycles) != 0 {
		t.Fatalf("aborted at cycle %d, want a multiple of %d", cyc, cfg.LB.WindowCycles)
	}
}

func TestRunCtxPublishesProgress(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(30, 8), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunCtx(context.Background(), 2_000_000); err != nil {
		t.Fatal(err)
	}
	r := g.Collect()
	if got := g.Progress(); got != r.Instructions {
		t.Fatalf("published progress %d != committed instructions %d", got, r.Instructions)
	}
}

func TestStateDumpRendersMachine(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(30, 8), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(10_000)
	dump := g.StateDump()
	for _, want := range []string{"cycle", "SM0", "dram"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("state dump missing %q:\n%s", want, dump)
		}
	}
}
