package harness

import (
	"context"
	"fmt"
	"runtime/debug"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// ProbeResult carries the per-load statistics of an instrumented baseline
// run, averaged over SMs (Figures 2 and 3).
type ProbeResult struct {
	Loads []stats.LoadStats
}

// RunProbe executes the benchmark under the baseline policy with a per-load
// probe attached to every SM and returns merged per-load statistics.
// Same-bench calls are single-flight, memoised like RunCfg's. A non-nil
// error is always a *RunError.
func (r *Runner) RunProbe(ctx context.Context, bench string) (*ProbeResult, error) {
	queueErr := func(cause error) error {
		return &RunError{Bench: bench, Policy: "probe", Phase: PhaseQueue, Err: cause}
	}
	res, _, err := singleFlight(r, ctx, r.probeCache, "probe|"+bench, queueErr, func() (*ProbeResult, error) {
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, queueErr(context.Cause(ctx))
		}
		defer func() { <-r.sem }()
		return r.executeProbe(ctx, bench)
	})
	return res, err
}

// MustRunProbe is RunProbe with a background context, panicking on failure.
// The panic value is the *RunError.
func (r *Runner) MustRunProbe(bench string) *ProbeResult {
	res, err := r.RunProbe(context.Background(), bench)
	if err != nil {
		panic(err)
	}
	return res
}

func (r *Runner) executeProbe(ctx context.Context, bench string) (res *ProbeResult, err error) {
	rerr := &RunError{Bench: bench, Policy: "probe", Phase: PhaseSetup}
	var g *sim.GPU
	defer func() {
		if p := recover(); p != nil {
			rerr.Err = fmt.Errorf("%w: %v", ErrPanic, p)
			rerr.Stack = string(debug.Stack())
			if g != nil {
				rerr.Cycle = g.Cycle()
				rerr.Snapshot = safeDump(g)
			}
			res, err = nil, rerr
		}
	}()

	b, ok := workload.ByName(bench)
	if !ok {
		rerr.Err = fmt.Errorf("%w %q", ErrUnknownBench, bench)
		return nil, rerr
	}
	machine, serr := sim.New(r.Cfg, b.Kernel, sim.Baseline{})
	if serr != nil {
		rerr.Err = fmt.Errorf("%w: %w", ErrBadConfig, serr)
		return nil, rerr
	}
	g = machine
	r.execs.Add(1)
	probes := make([]*stats.LoadProbe, len(g.SMs()))
	for i, smx := range g.SMs() {
		p := stats.NewLoadProbe(int64(r.Cfg.LB.WindowCycles))
		probes[i] = p
		smx.Probe = func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64) {
			if !isStore {
				p.Observe(pc, line, cycle)
			}
		}
	}
	rerr.Phase = PhaseRun
	cyc, runErr := g.RunCtx(ctx, r.cycles(&r.Cfg))
	if runErr != nil {
		rerr.Cycle = cyc
		rerr.Snapshot = safeDump(g)
		rerr.Err = runErr
		return nil, rerr
	}
	return &ProbeResult{Loads: mergeProbes(probes)}, nil
}

// mergeProbes averages per-PC statistics across SMs.
func mergeProbes(probes []*stats.LoadProbe) []stats.LoadStats {
	type acc struct {
		s stats.LoadStats
		n int
	}
	accs := map[uint32]*acc{}
	var order []uint32
	for _, p := range probes {
		for _, l := range p.Results() {
			a := accs[l.PC]
			if a == nil {
				a = &acc{s: stats.LoadStats{PC: l.PC}}
				accs[l.PC] = a
				order = append(order, l.PC)
			}
			a.s.AvgAccesses += l.AvgAccesses
			a.s.AvgReusedBytes += l.AvgReusedBytes
			a.s.AvgUniqueBytes += l.AvgUniqueBytes
			a.s.ReaccessRatio += l.ReaccessRatio
			a.n++
		}
	}
	var out []stats.LoadStats
	for _, pc := range order {
		a := accs[pc]
		n := float64(a.n)
		out = append(out, stats.LoadStats{
			PC:             pc,
			AvgAccesses:    a.s.AvgAccesses / n,
			AvgReusedBytes: a.s.AvgReusedBytes / n,
			AvgUniqueBytes: a.s.AvgUniqueBytes / n,
			ReaccessRatio:  a.s.ReaccessRatio / n,
		})
	}
	// Keep top-accessed first, as stats.LoadProbe.Results does.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].AvgAccesses > out[j-1].AvgAccesses; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
