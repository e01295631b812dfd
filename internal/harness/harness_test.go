package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// tinyRunner is fast enough for unit tests: 1 SM, short windows.
func tinyRunner() *Runner {
	cfg := BenchConfig()
	cfg.GPU.NumSMs = 1
	cfg.GPU.DRAMBandwidthGBs = 44
	cfg.GPU.DRAMChannels = 2
	cfg.GPU.L2Bytes = 128 * 1024
	cfg.LB.WindowCycles = 2000
	return NewRunner(cfg, 4)
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 {
		t.Fatalf("experiments = %d, want 19 (3 tables + 15 figures + 1 extension)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("incomplete experiment %q", e.ID)
		}
	}
	if _, ok := ExperimentByID("fig12"); !ok {
		t.Fatal("fig12 missing")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestRunnerMemoisation(t *testing.T) {
	r := tinyRunner()
	a := r.MustRun("S2", sim.Baseline{})
	b := r.MustRun("S2", sim.Baseline{})
	if a != b {
		t.Fatal("identical runs not memoised")
	}
	c := r.MustRunCfg(cfgWithL1(r.Cfg, 192), "l1=192", "S2", sim.Baseline{})
	if c == a {
		t.Fatal("different cfgKey hit the same cache entry")
	}
}

func TestSentinelErrorChains(t *testing.T) {
	r := tinyRunner()
	ctx := context.Background()

	_, err := r.Run(ctx, "no-such-bench", sim.Baseline{})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("Run(unknown bench) error = %T, want *RunError", err)
	}
	if !errors.Is(err, ErrUnknownBench) {
		t.Fatalf("unknown-bench chain missing ErrUnknownBench: %v", err)
	}
	if re.Bench != "no-such-bench" || re.Phase != PhaseSetup {
		t.Fatalf("RunError identity = %q/%q, want no-such-bench/setup", re.Bench, re.Phase)
	}

	bad := r.Cfg
	bad.GPU.NumSMs = 0
	_, err = r.RunCfg(ctx, bad, "bad", "S2", sim.Baseline{})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad-config chain missing ErrBadConfig: %v", err)
	}
	if errors.Is(err, ErrUnknownBench) {
		t.Fatalf("bad-config chain wrongly matches ErrUnknownBench: %v", err)
	}

	_, err = r.RunProbe(ctx, "no-such-bench")
	if !errors.Is(err, ErrUnknownBench) {
		t.Fatalf("probe unknown-bench chain missing ErrUnknownBench: %v", err)
	}
	if !errors.As(err, &re) || re.Policy != "probe" {
		t.Fatalf("probe RunError = %+v, want Policy=probe", err)
	}

	if _, _, err := r.BestSWL(ctx, "no-such-bench"); !errors.Is(err, ErrUnknownBench) {
		t.Fatalf("BestSWL unknown-bench chain missing ErrUnknownBench: %v", err)
	}
}

func TestMustRunPanicsWithRunError(t *testing.T) {
	r := tinyRunner()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("MustRun(unknown bench) did not panic")
		}
		re, ok := p.(*RunError)
		if !ok {
			t.Fatalf("panic value = %T, want *RunError", p)
		}
		if !errors.Is(re, ErrUnknownBench) {
			t.Fatalf("panic chain missing ErrUnknownBench: %v", re)
		}
	}()
	r.MustRun("no-such-bench", sim.Baseline{})
}

func TestFailedRunsAreNotMemoised(t *testing.T) {
	r := tinyRunner()
	ctx := context.Background()
	if _, err := r.Run(ctx, "no-such-bench", sim.Baseline{}); err == nil {
		t.Fatal("expected failure")
	}
	if n := r.results.Len(); n != 0 {
		t.Fatalf("failed run left %d memo entries", n)
	}
}

func TestBestSWLNeverWorseThanFullResidency(t *testing.T) {
	r := tinyRunner()
	lim, best := r.MustBestSWL("CF")
	if lim < 1 {
		t.Fatalf("best limit = %d", lim)
	}
	base := r.MustRun("CF", sim.Baseline{})
	// Best-SWL's sweep includes the full-residency limit, which matches
	// baseline scheduling up to CTA age ordering; allow small tolerance.
	if best.IPC() < base.IPC()*0.9 {
		t.Fatalf("Best-SWL %.3f far below baseline %.3f", best.IPC(), base.IPC())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "Demo", Header: []string{"A", "B"},
		Notes: []string{"a note"},
	}
	tab.AddRow("x", "1.00")
	tab.AddRow("longer,cell", "2.00")

	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Demo", "longer,cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint missing %q in:\n%s", want, out)
		}
	}

	csv := tab.CSV()
	if !strings.Contains(csv, `"longer,cell"`) {
		t.Fatalf("CSV quoting broken:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "A,B\n") {
		t.Fatalf("CSV header broken:\n%s", csv)
	}

	md := tab.Markdown()
	if !strings.Contains(md, "| A | B |") || !strings.Contains(md, "_a note_") {
		t.Fatalf("markdown broken:\n%s", md)
	}
}

func TestProbeExperimentsRun(t *testing.T) {
	r := tinyRunner()
	p := r.MustRunProbe("BI")
	if len(p.Loads) == 0 {
		t.Fatal("probe saw no loads")
	}
	// BI has a streaming load: the probe must classify at least one load
	// as streaming and at least one as reused.
	streams, reused := 0, 0
	for _, l := range p.Loads {
		if l.Streaming() {
			streams++
		} else if l.AvgReusedBytes > 0 {
			reused++
		}
	}
	if streams == 0 || reused == 0 {
		t.Fatalf("classification degenerate: %+v", p.Loads)
	}
	if r.MustRunProbe("BI") != p {
		t.Fatal("probe results not memoised")
	}
}

func TestSmallExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment end-to-end is slow")
	}
	r := tinyRunner()
	// The two config tables are cheap; fig1 exercises the full benchmark
	// list on the tiny runner.
	for _, id := range []string{"table1", "table3", "fig1"} {
		e, _ := ExperimentByID(id)
		tab := e.Run(r)
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestSpeedupAndGeoMean(t *testing.T) {
	a := &sim.Result{Cycles: 100, Instructions: 300}
	b := &sim.Result{Cycles: 100, Instructions: 200}
	if got := Speedup(a, b); got != 1.5 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(a, &sim.Result{Cycles: 100}); got != 0 {
		t.Fatalf("Speedup vs zero = %v", got)
	}
	if got := GeoMean([]float64{1, 4}); got != 2 {
		t.Fatalf("GeoMean = %v", got)
	}
}
