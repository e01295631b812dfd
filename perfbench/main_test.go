package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMetricsMatchBenchmarkJSON: the metrics the command prints are
// exactly those BENCHMARK.json declares, with the same units, and its
// workloads are the command's.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit})
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit}
		}
		return out
	}
	if !reflect.DeepEqual(e2e, strip(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json:\n  %v\nprinted:\n  %v", e2e, strip(endToEnd))
	}
	if !reflect.DeepEqual(layer, strip(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json:\n  %v\nprinted:\n  %v", layer, strip(perLayer))
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, command runs %v", names, workloadNames)
	}
}

// TestEmitRefusesUndeclaredAndMissing: the printer is the gate that keeps
// the printed set equal to the declared one.
func TestEmitRefusesUndeclaredAndMissing(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	rep := newReport()
	rep.set("a", 1)
	if err := emit(io.Discard, defs, rep, 1, 0); err == nil {
		t.Error("emit accepted a report missing a declared metric")
	}
	rep.set("b", 2)
	rep.set("c", 3)
	if err := emit(io.Discard, defs, rep, 1, 0); err == nil {
		t.Error("emit accepted an undeclared metric")
	}
	delete(rep.values, "c")
	var out bytes.Buffer
	if err := emit(&out, defs, rep, 3, 1); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 3 || line.Failed != 1 || len(line.Metrics) != 2 {
		t.Errorf("result line %+v", line)
	}
}

// TestPlanDeterministicPerSeed: the serve-mixed request sequence is a
// function of the seed alone, and differs across seeds.
func TestPlanDeterministicPerSeed(t *testing.T) {
	gen := func(seed uint64) [][][]round {
		p := newPlanner(seed, 2, 4)
		var passes [][][]round
		for i := 0; i < 3; i++ {
			rs, err := p.pass(serveRounds)
			if err != nil {
				t.Fatal(err)
			}
			passes = append(passes, rs)
		}
		return passes
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same request sequence")
	}
}

// TestPlanLastsLongestRun: however long the budget, serve-mixed's passes
// never run out of never-seen points, at any of many seeds.
func TestPlanLastsLongestRun(t *testing.T) {
	passes := servePasses(time.Hour)
	for seed := uint64(1); seed <= 40; seed++ {
		p := newPlanner(seed, maxClients, 1)
		for i := 0; i < passes; i++ {
			if _, err := p.pass(serveRounds); err != nil {
				t.Fatalf("seed %d pass %d of %d: %v", seed, i, passes, err)
			}
		}
	}
}

// TestPlanHitSweepsNameCommittedPoints: a hit sweep only names points its
// own client (or the warm-up) committed earlier, every ticket is fresh,
// and about half the sweeps are hits.
func TestPlanHitSweepsNameCommittedPoints(t *testing.T) {
	p := newPlanner(3, 2, 1)
	tickets := map[string]bool{}
	seen := make([]map[string]bool, 2)
	newPoints := map[string]int{}
	hits, total := 0, 0
	for c := range seen {
		seen[c] = map[string]bool{}
		for _, b := range p.warm.Benches {
			for _, s := range warmSchemes {
				seen[c][pointName(b, s, warmWindows)] = true
			}
		}
	}
	for pass := 0; pass < 5; pass++ {
		rs, err := p.pass(serveRounds)
		if err != nil {
			t.Fatal(err)
		}
		for c, rounds := range rs {
			for _, r := range rounds {
				sw := r.Sweep
				total++
				if tickets[sw.ticket()] {
					t.Fatalf("ticket %s submitted twice", sw.ticket())
				}
				tickets[sw.ticket()] = true
				fresh := 0
				for _, b := range sw.Benches {
					for _, s := range sw.Schemes {
						k := pointName(b, s, sw.Windows)
						if !seen[c][k] {
							fresh++
							seen[c][k] = true
							if s != "baseline" && s != "linebacker" {
								newPoints[k]++
							}
						}
					}
				}
				if !sw.New {
					hits++
					if fresh > 0 {
						t.Fatalf("hit sweep %s names %d uncommitted point(s)", sw.ticket(), fresh)
					}
				} else if fresh == 0 {
					t.Fatalf("new sweep %s names no new point", sw.ticket())
				}
				for _, q := range r.Estimates {
					if q.L1KB < estMinKB || q.L1KB > estMaxKB {
						t.Fatalf("estimate query %+v outside the calibrated cache axis", q)
					}
				}
			}
		}
	}
	for k, n := range newPoints {
		if n > 1 {
			t.Errorf("point %s introduced by %d clients", k, n)
		}
	}
	if share := float64(hits) / float64(total); share < 0.3 || share > 0.7 {
		t.Errorf("hit sweeps are %.2f of all sweeps, want about half", share)
	}
}

// TestTraceHooksLeaveResultBitIdentical: the checker, the stage injector
// and the policy wrapper change no simulated bit of a fast Linebacker
// point.
func TestTraceHooksLeaveResultBitIdentical(t *testing.T) {
	cfg := harness.BenchConfig()
	p := simPoint{key: "S2|lb", bench: "S2", cfg: cfg, cycles: 2 * int64(cfg.LB.WindowCycles),
		policy: func() sim.Policy { return core.New() }}
	ref, err := runTraced(context.Background(), p, modeRef)
	if err != nil {
		t.Fatal(err)
	}
	for mode := modeChecker; mode <= modePolicy; mode++ {
		pt, err := runTraced(context.Background(), p, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt.res, ref.res) {
			t.Errorf("mode %d changed the result:\n  ref   %+v\n  trace %+v", mode, ref.res, pt.res)
		}
		switch mode {
		case modeChecker:
			if pt.step <= 0 || pt.step > pt.dur {
				t.Errorf("checker pass: step time %v of %v", pt.step, pt.dur)
			}
		case modeStage:
			var sum time.Duration
			for _, d := range pt.stages {
				if d <= 0 {
					t.Errorf("stage pass: a stage has no time: %v", pt.stages)
				}
				sum += d
			}
			if sum > pt.dur {
				t.Errorf("stage pass: stages %v exceed the run %v", sum, pt.dur)
			}
		case modePolicy:
			if pt.hooks.calls == 0 || pt.hooks.probes == 0 || pt.hooks.timed <= 0 {
				t.Errorf("policy pass: hooks %+v", pt.hooks)
			}
		}
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload at a reduced size
// (serve-mixed at its smallest), untraced and traced, and checks the report
// holds exactly the declared metrics with every output check passing.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	snap, err := check.LoadSnapshot(filepath.Join("..", "internal", "check", "testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	small := map[string]func(e *env) benchWorkload{
		"fast-golden": func(e *env) benchWorkload {
			return &fastGolden{env: e, windows: 1, benches: []string{"S2", "KM"}}
		},
		"paper-fig12": func(e *env) benchWorkload { return &paperFig12{env: e, windows: 1} },
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 5, procs: 2, trace: traced, workDir: t.TempDir(), golden: snap,
				tally: &tally{w: os.Stderr}, stderr: io.Discard}
			mk := func() benchWorkload { return small[name](e) }
			if small[name] == nil {
				// serve-mixed at its smallest pass count, which the
				// percentiles' sample minimums need.
				var err error
				if mk, err = factory(name, e, time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := measure(context.Background(), name, mk, e, time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := emit(io.Discard, defs, rep, 1, 0); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if f := e.tally.failed.Load(); f > 0 {
				t.Errorf("%s traced=%v: %d failed checks", name, traced, f)
			}
			t.Logf("%s traced=%v: %d metrics, %d checked operations", name, traced, len(rep.values), e.tally.attempted.Load())
		}
	}
}
