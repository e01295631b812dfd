package harness

import (
	"context"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
)

// ProbeResult carries the per-load statistics of an instrumented baseline
// run, averaged over SMs (Figures 2 and 3).
type ProbeResult struct {
	Loads []stats.LoadStats
}

// RunProbe executes the benchmark under the baseline policy with a per-load
// probe attached to every SM and returns merged per-load statistics. It
// runs under the same fault barrier as RunCfg and is memoised under the
// same key function (policy "probe", the runner's base config and run
// length), single-flight, in memory only. A non-nil error is always a
// *RunError.
func (r *Runner) RunProbe(ctx context.Context, bench string) (*ProbeResult, error) {
	id := RunError{Bench: bench, Policy: "probe"}
	cfg := r.Cfg
	res, err := r.probes.Do(ctx, r.memoKey(&cfg, &id), func() (*ProbeResult, error) {
		return execute(ctx, r, id, cfg, sim.Baseline{}, func(g *sim.GPU) func() *ProbeResult {
			probes := make([]*stats.LoadProbe, len(g.SMs()))
			for i, smx := range g.SMs() {
				p := stats.NewLoadProbe(int64(cfg.LB.WindowCycles))
				probes[i] = p
				smx.Probe = func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64) {
					if !isStore {
						p.Observe(pc, line, cycle)
					}
				}
			}
			return func() *ProbeResult { return &ProbeResult{Loads: mergeProbes(probes)} }
		})
	})
	if err != nil {
		return nil, asRunError(id, err)
	}
	return res, nil
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
