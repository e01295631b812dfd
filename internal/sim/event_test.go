package sim

import (
	"fmt"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// eventBoundChecker is a CycleChecker that proves the event-lower-bound
// half of the invisibility contract (DESIGN.md §10) from inside a strict
// run: after every ticked cycle it fingerprints all engine state that is
// NOT a per-cycle accrual, and whenever the machine advertises its next
// event at cycle E it demands the fingerprint stay frozen until E. A
// fingerprint change at any cycle < E means some component advertised its
// event too late — the exact bug class that would make a skipping run
// diverge from this strict one.
//
// The exempt accruals (scheduler IssueIdle, L1 MSHRStalls, DRAM busy and
// bandwidth-token state, policy byte-cycle integrals) are the quantities
// skipTo applies in closed form; everything else must be event-driven.
type eventBoundChecker struct {
	fp      uint64
	until   int64
	started bool
	checks  int64
	spans   int64 // advertisements with until > now+1 (real skippable spans)
	err     error
}

func (c *eventBoundChecker) CheckCycle(g *GPU, cycle int64) error {
	nfp := eventFingerprint(g)
	if c.started && nfp != c.fp && cycle < c.until {
		c.err = fmt.Errorf("engine state changed at cycle %d, but the machine advertised no event before cycle %d",
			cycle, c.until)
		return c.err
	}
	c.checks++
	if !c.started || nfp != c.fp || cycle+1 >= c.until {
		if e, ok := g.nextEventCycle(cycle + 1); ok {
			c.until = e
		} else {
			c.until = neverWake
		}
		if c.until > cycle+2 {
			c.spans++
		}
		c.fp = nfp
		c.started = true
	}
	return nil
}

// eventFingerprint digests every piece of engine state the event protocol
// promises is frozen across an advertised idle span. Per-cycle accruals are
// deliberately absent; cache structural state enters through StateHash,
// which excludes them by construction.
func eventFingerprint(g *GPU) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	mixb := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mix(int64(g.nextCTA))
	mix(int64(g.l2Queue.Len()))
	mix(int64(g.toL2.Pending()))
	mix(int64(g.fromL2.Pending()))
	mix(int64(g.l2.StateHash()))
	mix(int64(g.dram.QueueLen()))
	mix(int64(g.dram.Inflight()))
	ds := g.dram.Stats // BusyCycles is the DRAM's per-cycle accrual
	for _, v := range []int64{ds.Reads, ds.Writes, ds.BytesRead, ds.BytesWritten,
		ds.RegBackupBytes, ds.RegRestoreBytes, ds.RowHits, ds.RowMisses} {
		mix(v)
	}
	for _, sm := range g.sms {
		mix(sm.Stats.Retired)
		mix(sm.Stats.StoreReqs)
		mix(sm.Stats.CTALaunches)
		mix(sm.Stats.CTADone)
		for _, v := range sm.Stats.LoadReqs {
			mix(v)
		}
		mix(int64(sm.lsu.Len()))
		mix(int64(len(sm.held)))
		mix(int64(sm.freeSlots))
		mix(int64(sm.l1.StateHash()))
		for i := range sm.warps {
			w := &sm.warps[i]
			mixb(w.Alive)
			mixb(w.retired)
			mix(int64(w.iter))
			mix(int64(w.pcIdx))
			mix(w.readyAt)
			mix(int64(w.memPending))
		}
	}
	return h
}

// pulsePolicy gates every CTA off during alternating windows of `period`
// cycles and advertises the boundary through NextEvent — a minimal
// policy-driven event source that forces the engine to merge policy events
// into its global minimum. During an "off" phase the whole SM front-end is
// idle, so any too-late advertisement from the policy merge path would
// surface as a lower-bound violation.
type pulsePolicy struct{ period int64 }

func (p pulsePolicy) Name() string           { return "pulse" }
func (p pulsePolicy) Attach(sm *SM) SMPolicy { return &pulseState{period: p.period} }

type pulseState struct {
	BasePolicy
	period int64
	on     bool
}

func (s *pulseState) CTAActive(int) bool { return s.on }
func (s *pulseState) OnCycle(cycle int64) {
	s.on = (cycle/s.period)%2 == 0
}
func (s *pulseState) NextEvent(now int64) (int64, bool) {
	// The phase flips during OnCycle of every multiple of period, so the
	// earliest self-event >= now is the ceiling boundary (now itself when
	// now is a boundary — the eventBoundChecker caught the off-by-one
	// floor+period version advertising past a flip).
	return (now + s.period - 1) / s.period * s.period, true
}
func (s *pulseState) SkipCycles(from, to int64) {
	// on is a pure function of the last OnCycle's cycle; replay the final
	// skipped cycle's decision so a skipping run lands in the same phase.
	if to > from {
		s.on = ((to-1)/s.period)%2 == 0
	}
}

func eventBoundCfg() config.Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	cfg.GPU.DRAMBandwidthGBs = 176.25
	cfg.GPU.DRAMChannels = 4
	cfg.GPU.L2Bytes = 512 * 1024
	cfg.LB.WindowCycles = 12500
	cfg.Strict = true // tick every cycle so the checker sees each transition
	return cfg
}

// TestEventLowerBound runs strict simulations with the lower-bound checker
// installed: every advertised event must be a true lower bound on the next
// engine-state change. Covers a memory-bound benchmark under the stateless
// baseline (warp readyAt / MSHR / DRAM events) and under a window-pulsed
// gating policy (policy NextEvent merge path).
func TestEventLowerBound(t *testing.T) {
	benches := []string{"S2", "BC"}
	if testing.Short() {
		benches = benches[:1]
	}
	pols := map[string]func() Policy{
		"baseline": func() Policy { return Baseline{} },
		"pulse":    func() Policy { return pulsePolicy{period: 3000} },
	}
	for _, bench := range benches {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("workload %s not found", bench)
		}
		for name, mk := range pols {
			t.Run(bench+"/"+name, func(t *testing.T) {
				t.Parallel() // each case owns its GPU; no shared state
				cfg := eventBoundCfg()
				g, err := New(cfg, b.Kernel, mk())
				if err != nil {
					t.Fatal(err)
				}
				chk := &eventBoundChecker{}
				g.SetChecker(chk)
				g.Run(60_000)
				if chk.err != nil {
					t.Fatalf("event lower bound violated: %v", chk.err)
				}
				if chk.checks == 0 {
					t.Fatal("checker never ran")
				}
				if chk.spans == 0 {
					t.Errorf("no advertisement ever exceeded now+1; the property was vacuous")
				}
				t.Logf("checked %d cycles, %d multi-cycle advertisements", chk.checks, chk.spans)
			})
		}
	}
}

// TestPulsePolicySkipEquivalence cross-checks the pulse policy used above:
// its own NextEvent/SkipCycles implementation must satisfy the invisibility
// contract, which doubles as a second strict-vs-skip differential on a
// policy written independently of the shipped schemes.
func TestPulsePolicySkipEquivalence(t *testing.T) {
	b, ok := workload.ByName("S2")
	if !ok {
		t.Fatal("workload S2 not found")
	}
	run := func(strict bool) (string, int64) {
		cfg := eventBoundCfg()
		cfg.Strict = strict
		g, err := New(cfg, b.Kernel, pulsePolicy{period: 3000})
		if err != nil {
			t.Fatal(err)
		}
		g.Run(60_000)
		return g.StateDump(), g.SkippedCycles()
	}
	ds, _ := run(true)
	dk, skipped := run(false)
	if ds != dk {
		t.Fatalf("pulse policy diverged between strict and skipping:\n--- strict ---\n%s\n--- skipping ---\n%s", ds, dk)
	}
	if skipped == 0 {
		t.Error("skipping run never skipped; differential was vacuous")
	}
}
