package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// The traced passes re-run a workload's simulation points with host-time
// hooks attached from the outside, through the engine's public extension
// points only:
//
//   - checker pass: a CycleChecker marks the end of every ticked Step. Per-SM
//     sleeping stays on, so this pass sees the engine exactly as the
//     untraced run does.
//   - stage pass: a FaultInjector that advertises no events (so global
//     skipping stays legal) marks the start of every Step stage, and the
//     checker marks the end of the last. Any injector turns per-SM sleeping
//     off, so this pass splits the time inside one full Step rather than
//     the untraced run's time; its overhead is reported with it.
//   - policy pass: a sim.Policy wrapper times the heavy SMPolicy hooks and
//     counts every hook call.
//
// Every traced result must be bit-identical to the untraced one.

// traceMode selects the hooks of one traced pass.
type traceMode int

const (
	modeRef traceMode = iota
	modeChecker
	modeStage
	modePolicy
)

// stageNames are the Step stages, in order, as the engine names them.
var stageNames = [...]string{"dispatch", "sm", "l2", "dram", "response"}

// pointTrace is one traced simulation's host-time split.
type pointTrace struct {
	res     *sim.Result
	dur     time.Duration
	skipped int64
	slept   int64
	smCyc   int64

	step   time.Duration // checker pass: ticking time
	stages [len(stageNames)]time.Duration
	hooks  hookStats
}

// stepMarks is the checker-pass tracer. The interval between the ends of
// two consecutive ticked cycles is one Step plus the loop's per-tick event
// probe; intervals that span a fast-forward additionally hold the skip
// machinery. Ticking time is the mean consecutive interval times the
// ticked-cycle count; the rest of RunCtx is the event loop's own.
type stepMarks struct {
	last      time.Time
	lastCycle int64
	ticked    int64
	consec    time.Duration
	nConsec   int64
}

func (s *stepMarks) CheckCycle(_ *sim.GPU, cyc int64) error {
	now := time.Now()
	if s.ticked > 0 && cyc == s.lastCycle+1 {
		s.consec += now.Sub(s.last)
		s.nConsec++
	}
	s.ticked++
	s.last, s.lastCycle = now, cyc
	return nil
}

// stepTime estimates the run's ticking time, capped at total.
func (s *stepMarks) stepTime(total time.Duration) time.Duration {
	if s.nConsec == 0 {
		return total
	}
	t := time.Duration(float64(s.consec) / float64(s.nConsec) * float64(s.ticked))
	if t > total {
		return total
	}
	return t
}

// stageMarks is the stage-pass tracer: an injector that only reads the
// clock, plus the checker that closes the last stage of each Step.
type stageMarks struct {
	cur   int
	last  time.Time
	total [len(stageNames)]time.Duration
}

func (s *stageMarks) Stage(_ *sim.GPU, stage string, _ int64) {
	now := time.Now()
	if s.cur >= 0 {
		s.total[s.cur] += now.Sub(s.last)
	}
	s.cur, s.last = -1, now
	for i, n := range stageNames {
		if n == stage {
			s.cur = i
		}
	}
}

// NextEvent implements sim.NextEventer: the tracer never needs a cycle
// ticked, so global skipping stays legal.
func (s *stageMarks) NextEvent(int64) (int64, bool) { return 0, false }

func (s *stageMarks) CheckCycle(_ *sim.GPU, _ int64) error {
	if s.cur >= 0 {
		s.total[s.cur] += time.Since(s.last)
	}
	s.cur = -1
	return nil
}

// hookStats accumulates the policy wrapper's measurements.
type hookStats struct {
	calls  int64
	timed  time.Duration
	probes int64
	hits   int64
}

func (h *hookStats) add(o hookStats) {
	h.calls += o.calls
	h.timed += o.timed
	h.probes += o.probes
	h.hits += o.hits
}

// timedPolicy wraps a policy so that every per-SM hook is counted and the
// heavy ones (OnCycle, ProbeVictim, OnEviction, OnLoadOutcome,
// OnRegResponse) are timed. Each SM's wrapper keeps its own counters, so
// intra-run SM workers never share one.
type timedPolicy struct {
	inner sim.Policy
	sms   []*timedSMPolicy
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Attach(sm *sim.SM) sim.SMPolicy {
	w := &timedSMPolicy{inner: p.inner.Attach(sm)}
	p.sms = append(p.sms, w)
	return w
}

func (p *timedPolicy) stats() hookStats {
	var h hookStats
	for _, w := range p.sms {
		h.add(w.hookStats)
	}
	return h
}

type timedSMPolicy struct {
	inner sim.SMPolicy
	hookStats
}

func (w *timedSMPolicy) CTAActive(slot int) bool {
	w.calls++
	return w.inner.CTAActive(slot)
}

func (w *timedSMPolicy) WarpActive(slot int) bool {
	w.calls++
	return w.inner.WarpActive(slot)
}

func (w *timedSMPolicy) AllowNewCTA() bool {
	w.calls++
	return w.inner.AllowNewCTA()
}

func (w *timedSMPolicy) AllocateL1(slot int, pc uint32) bool {
	w.calls++
	return w.inner.AllocateL1(slot, pc)
}

func (w *timedSMPolicy) ExtraL1Latency(line memtypes.LineAddr, cyc int64) int {
	w.calls++
	return w.inner.ExtraL1Latency(line, cyc)
}

func (w *timedSMPolicy) ProbeVictim(line memtypes.LineAddr, pc uint32, cyc int64) (bool, int) {
	w.calls++
	w.probes++
	t := time.Now()
	hit, lat := w.inner.ProbeVictim(line, pc, cyc)
	w.timed += time.Since(t)
	if hit {
		w.hits++
	}
	return hit, lat
}

func (w *timedSMPolicy) OnEviction(ev cache.Eviction, cyc int64) {
	w.calls++
	t := time.Now()
	w.inner.OnEviction(ev, cyc)
	w.timed += time.Since(t)
}

func (w *timedSMPolicy) OnLoadOutcome(slot int, pc uint32, line memtypes.LineAddr, out sim.Outcome, cyc int64) {
	w.calls++
	t := time.Now()
	w.inner.OnLoadOutcome(slot, pc, line, out, cyc)
	w.timed += time.Since(t)
}

func (w *timedSMPolicy) OnStore(line memtypes.LineAddr, cyc int64) {
	w.calls++
	w.inner.OnStore(line, cyc)
}

func (w *timedSMPolicy) OnCTALaunch(slot, seq int, cyc int64) {
	w.calls++
	w.inner.OnCTALaunch(slot, seq, cyc)
}

func (w *timedSMPolicy) OnCTAComplete(slot int, cyc int64) {
	w.calls++
	w.inner.OnCTAComplete(slot, cyc)
}

func (w *timedSMPolicy) OnRegResponse(req *memtypes.Request, cyc int64) {
	w.calls++
	t := time.Now()
	w.inner.OnRegResponse(req, cyc)
	w.timed += time.Since(t)
}

func (w *timedSMPolicy) OnCycle(cyc int64) {
	w.calls++
	t := time.Now()
	w.inner.OnCycle(cyc)
	w.timed += time.Since(t)
}

func (w *timedSMPolicy) NextEvent(now int64) (int64, bool) {
	w.calls++
	return w.inner.NextEvent(now)
}

func (w *timedSMPolicy) SkipCycles(from, to int64) {
	w.calls++
	w.inner.SkipCycles(from, to)
}

// ExtraStats forwards the wrapped policy's scheme metrics, so Collect
// builds the same Result as for the unwrapped policy.
func (w *timedSMPolicy) ExtraStats() map[string]float64 {
	if es, ok := w.inner.(sim.ExtraStatser); ok {
		return es.ExtraStats()
	}
	return nil
}

// runTraced runs one point under the mode's hooks.
func runTraced(ctx context.Context, p simPoint, mode traceMode) (pointTrace, error) {
	pol := p.policy()
	var tp *timedPolicy
	if mode == modePolicy {
		tp = &timedPolicy{inner: pol}
		pol = tp
	}
	g, err := p.newMachine(pol)
	if err != nil {
		return pointTrace{}, err
	}
	var steps *stepMarks
	var stages *stageMarks
	switch mode {
	case modeChecker:
		steps = &stepMarks{}
		g.SetChecker(steps)
	case modeStage:
		stages = &stageMarks{cur: -1}
		g.SetFaultInjector(stages)
		g.SetChecker(stages)
	}
	start := time.Now()
	if _, err := g.RunCtx(ctx, p.cycles); err != nil {
		return pointTrace{}, fmt.Errorf("%s: %w", p.key, err)
	}
	pt := pointTrace{dur: time.Since(start), res: g.Collect(), skipped: g.SkippedCycles(),
		slept: g.SleptSMCycles(), smCyc: g.Cycle() * int64(len(g.SMs()))}
	switch mode {
	case modeChecker:
		pt.step = steps.stepTime(pt.dur)
	case modeStage:
		pt.stages = stages.total
	case modePolicy:
		pt.hooks = tp.stats()
	}
	return pt, nil
}

// tracePass runs every point under one mode, one after another.
func tracePass(ctx context.Context, points []simPoint, mode traceMode) ([]pointTrace, error) {
	out := make([]pointTrace, len(points))
	for i, p := range points {
		var err error
		if out[i], err = runTraced(ctx, p, mode); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceSim runs the untraced reference pass and the three traced passes
// over points, checks every result against expect (the workload's own
// untraced answer for the point) and fills the sim.* and policy.* metrics.
// The points run one at a time, so no point's host time includes
// another's contention, and the reference pass runs both first and last:
// its host time is the mean of the two, which cancels drift across the
// passes.
func traceSim(ctx context.Context, e *env, points []simPoint, expect []*sim.Result, rep *report) error {
	var passes [4][]pointTrace
	for mode := modeRef; mode <= modePolicy; mode++ {
		out, err := tracePass(ctx, points, mode)
		if err != nil {
			return err
		}
		passes[mode] = out
	}
	again, err := tracePass(ctx, points, modeRef)
	if err != nil {
		return err
	}
	for i, p := range points {
		ok := true
		if !reflect.DeepEqual(passes[modeRef][i].res, expect[i]) || !reflect.DeepEqual(again[i].res, expect[i]) {
			e.tally.fail("%s: direct untraced result differs from the workload's answer", p.key)
			ok = false
		}
		for mode := modeChecker; mode <= modePolicy; mode++ {
			if !reflect.DeepEqual(passes[mode][i].res, passes[modeRef][i].res) {
				e.tally.fail("%s: traced pass %d result differs from the untraced run", p.key, mode)
				ok = false
			}
		}
		if ok {
			e.tally.ok()
		}
		passes[modeRef][i].dur = (passes[modeRef][i].dur + again[i].dur) / 2
	}

	var ref struct {
		dur                                  time.Duration
		cycles, skipped, slept, smCyc, ticks int64
	}
	for _, pt := range passes[modeRef] {
		ref.dur += pt.dur
		ref.cycles += pt.res.Cycles
		ref.skipped += pt.skipped
		ref.slept += pt.slept
		ref.smCyc += pt.smCyc
		ref.ticks += pt.res.Cycles - pt.skipped
	}
	sum := func(mode traceMode) (total time.Duration) {
		for _, pt := range passes[mode] {
			total += pt.dur
		}
		return total
	}
	refDur := float64(ref.dur)
	rep.set("sim.ns_per_ticked_cycle", share(refDur, float64(ref.ticks)))
	rep.set("sim.ticked_cycles", float64(ref.ticks))
	rep.set("sim.skipped_share", share(float64(ref.skipped), float64(ref.cycles)))
	rep.set("sim.slept_sm_share", share(float64(ref.slept), float64(ref.smCyc)))

	chk := float64(sum(modeChecker))
	var step time.Duration
	for _, pt := range passes[modeChecker] {
		step += pt.step
	}
	rep.set("sim.step_share", share(float64(step), chk))
	rep.set("sim.loop_share", 1-share(float64(step), chk))
	rep.set("sim.trace_overhead.checker", share(chk, refDur))

	stg := float64(sum(modeStage))
	inStages := 0.0
	for k, name := range stageNames {
		var d time.Duration
		for _, pt := range passes[modeStage] {
			d += pt.stages[k]
		}
		inStages += float64(d)
		rep.set("sim."+name+"_share", share(float64(d), stg))
	}
	rep.set("sim.stage_loop_share", 1-share(inStages, stg))
	rep.set("sim.trace_overhead.stage", share(stg, refDur))

	pol := float64(sum(modePolicy))
	var h hookStats
	for _, pt := range passes[modePolicy] {
		h.add(pt.hooks)
	}
	rep.set("policy.hook_share", share(float64(h.timed), pol))
	rep.set("policy.calls", float64(h.calls))
	rep.set("policy.victim_hit_share", share(float64(h.hits), float64(h.probes)))
	rep.set("sim.trace_overhead.policy", share(pol, refDur))
	return nil
}
