package check

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// buggyVictimPolicy is a deliberately broken victim-caching scheme: it
// services victim hits but "forgets" to count every fourth one — exactly
// the class of silent accounting bug (a dropped hit increment) the
// verification subsystem exists to catch.
type buggyVictimPolicy struct{ dropEvery int64 }

func (p buggyVictimPolicy) Name() string { return "BuggyVictim" }
func (p buggyVictimPolicy) Attach(sm *sim.SM) sim.SMPolicy {
	return &buggyVictimState{dropEvery: p.dropEvery, lines: map[memtypes.LineAddr]bool{}}
}

type buggyVictimState struct {
	sim.BasePolicy
	dropEvery int64
	lines     map[memtypes.LineAddr]bool
	served    int64 // true services
	counted   int64 // what the stats claim
}

func (s *buggyVictimState) OnEviction(ev cache.Eviction, cycle int64) {
	if !ev.Dirty {
		s.lines[ev.Line] = true
	}
}

func (s *buggyVictimState) OnStore(line memtypes.LineAddr, cycle int64) {
	delete(s.lines, line)
}

func (s *buggyVictimState) ProbeVictim(line memtypes.LineAddr, pc uint32, cycle int64) (bool, int) {
	if !s.lines[line] {
		return false, 0
	}
	delete(s.lines, line)
	s.served++
	// The injected bug: every dropEvery-th hit is serviced but not counted.
	if s.dropEvery == 0 || s.served%s.dropEvery != 0 {
		s.counted++
	}
	return true, 1
}

// VictimHits implements VictimHitser with the corrupted count.
func (s *buggyVictimState) VictimHits() int64 { return s.counted }

// TestInjectedAccountingBugCaught demonstrates the acceptance scenario: a
// scheme that drops victim-hit increments is flagged by the invariant
// checker (the engine's OutRegHit tally disagrees with the policy's), while
// the same scheme with honest accounting sails through.
func TestInjectedAccountingBugCaught(t *testing.T) {
	run := func(dropEvery int64) (*Checker, *sim.Result) {
		b, _ := workload.ByName("S2")
		cfg := testConfig()
		g, err := sim.New(cfg, b.Kernel, buggyVictimPolicy{dropEvery: dropEvery})
		if err != nil {
			t.Fatal(err)
		}
		c := Attach(g, Collect())
		g.Run(4 * int64(cfg.LB.WindowCycles))
		return c, g.Collect()
	}

	honest, res := run(0)
	if res.Loads[sim.OutRegHit] == 0 {
		t.Fatal("test scheme never serviced a victim hit; the bug cannot manifest")
	}
	if n := len(honest.Violations()); n != 0 {
		t.Fatalf("honest accounting flagged %d violations: %v", n, honest.Violations()[0])
	}

	buggy, _ := run(4)
	vs := buggy.Violations()
	if len(vs) == 0 {
		t.Fatal("dropped victim-hit increments went undetected")
	}
	if vs[0].Rule != "victim-accounting" {
		t.Fatalf("caught by rule %q, want victim-accounting", vs[0].Rule)
	}
}

// TestGoldenCatchesMetricDrift demonstrates the regression half of the
// acceptance scenario: a single dropped count in a snapshot metric is
// reported by Snapshot.Compare.
func TestGoldenCatchesMetricDrift(t *testing.T) {
	a := &Snapshot{Windows: 2, Entries: map[string]Metrics{
		"S2|lb": {Cycles: 100, Loads: [5]int64{10, 2, 3, 0, 5}},
	}}
	b := &Snapshot{Windows: 2, Entries: map[string]Metrics{
		"S2|lb": {Cycles: 100, Loads: [5]int64{10, 2, 3, 0, 4}}, // one reg hit dropped
	}}
	if diffs := a.Compare(b); len(diffs) != 1 {
		t.Fatalf("expected exactly one divergence, got %v", diffs)
	}
	if diffs := a.Compare(a); len(diffs) != 0 {
		t.Fatalf("self-comparison diverged: %v", diffs)
	}
}

// pulseGatePolicy gates every CTA off in alternating spans of period
// cycles. With announce unset it flips the gate without telling the SM —
// the mistake a hand-written policy can make.
type pulseGatePolicy struct {
	period   int64
	announce bool
}

func (p pulseGatePolicy) Name() string { return "PulseGate" }
func (p pulseGatePolicy) Attach(sm *sim.SM) sim.SMPolicy {
	return &pulseGateState{sm: sm, period: p.period, announce: p.announce, on: true}
}

type pulseGateState struct {
	sim.BasePolicy
	sm       *sim.SM
	period   int64
	announce bool
	on       bool
}

func (s *pulseGateState) CTAActive(int) bool { return s.on }

func (s *pulseGateState) OnCycle(cycle int64) {
	if on := (cycle/s.period)%2 == 0; on != s.on {
		s.on = on
		if s.announce {
			s.sm.GatesChanged()
		}
	}
}

// NextEvent pins every cycle: the test runs strict anyway.
func (s *pulseGateState) NextEvent(now int64) (int64, bool) { return now, true }

// TestUnannouncedGateCaught: a policy that flips its issue gate without
// SM.GatesChanged is flagged by the gate-cache rule, while the same policy
// announcing its flips passes every rule.
func TestUnannouncedGateCaught(t *testing.T) {
	run := func(announce bool) *Checker {
		b, _ := workload.ByName("S2")
		cfg := testConfig()
		cfg.Strict = true
		g, err := sim.New(cfg, b.Kernel, pulseGatePolicy{period: 500, announce: announce})
		if err != nil {
			t.Fatal(err)
		}
		c := Attach(g, Collect())
		g.Run(5_000)
		return c
	}
	if vs := run(true).Violations(); len(vs) != 0 {
		t.Fatalf("announced gate flips flagged %d violations: %v", len(vs), vs[0])
	}
	vs := run(false).Violations()
	if len(vs) == 0 {
		t.Fatal("unannounced gate flips went undetected")
	}
	if vs[0].Rule != "gate-cache" {
		t.Fatalf("caught by rule %q, want gate-cache: %v", vs[0].Rule, vs[0])
	}
}
