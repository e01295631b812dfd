package sim

import (
	"fmt"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// linearPickWarp is the GTO picker as a plain scan over every warp slot of
// the scheduler, kept as the oracle for pickWarp's runnable-set walk: the
// greedy check, then the smallest (CTA seq, warp idx) among warps that are
// alive, under the MLP limit, ready and admitted by the policy gates. Its
// second result is the earliest readyAt among alive, under-MLP warps not
// ready yet (neverWake if none); like pickWarp's, it is only meaningful
// when no warp is picked. greedy=false skips the greedy check, giving the
// oracle for oldestReady.
func (sm *SM) linearPickWarp(sched int, cycle int64, greedy bool) (int, int64) {
	ns := sm.cfg.GPU.NumSchedulers
	mlp := sm.cfg.GPU.MaxWarpMLP
	if last := sm.lastIssued[sched]; greedy && last >= 0 {
		w := &sm.warps[last]
		if w.ready(cycle, mlp) && sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(last) {
			return last, 0
		}
	}
	best := -1
	future := neverWake
	for i := sched; i < len(sm.warps); i += ns {
		w := &sm.warps[i]
		if !w.Alive || w.memPending >= mlp {
			continue
		}
		if w.readyAt > cycle {
			if w.readyAt < future {
				future = w.readyAt
			}
			continue
		}
		if !sm.pol.CTAActive(w.CTASlot) || !sm.pol.WarpActive(i) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &sm.warps[best]
		if w.Seq < b.Seq || (w.Seq == b.Seq && w.Idx < b.Idx) {
			best = i
		}
	}
	return best, future
}

// runnableErr checks the scheduler caches against their definition: each
// scheduler's order holds exactly its live warps, oldest first by
// (CTA seq, warp idx); a live warp's rank indexes its own order entry and
// every other warp's rank is -1; and bit r of the runnable set equals
// Alive && memPending < MaxWarpMLP for warps[order[r]], with no bit set
// past the order.
func (sm *SM) runnableErr() error {
	ns := len(sm.scheds)
	mlp := sm.cfg.GPU.MaxWarpMLP
	for i := range sm.warps {
		w := &sm.warps[i]
		order := sm.scheds[i%ns].order
		if !w.Alive {
			if w.rank != -1 {
				return fmt.Errorf("SM%d: dead warp %d holds rank %d", sm.id, i, w.rank)
			}
			continue
		}
		if w.rank < 0 || w.rank >= len(order) || order[w.rank] != i {
			return fmt.Errorf("SM%d: live warp %d has rank %d outside its scheduler's order", sm.id, i, w.rank)
		}
	}
	for s := range sm.scheds {
		sc := &sm.scheds[s]
		for r, i := range sc.order {
			w := &sm.warps[i]
			if i%ns != s || w.rank != r {
				return fmt.Errorf("SM%d sched %d: order[%d] = warp %d (rank %d) does not belong there", sm.id, s, r, i, w.rank)
			}
			if r > 0 {
				p := &sm.warps[sc.order[r-1]]
				if p.Seq > w.Seq || (p.Seq == w.Seq && p.Idx >= w.Idx) {
					return fmt.Errorf("SM%d sched %d: order out of age order at rank %d", sm.id, s, r)
				}
			}
			got := sc.runnable[r>>6]>>(r&63)&1 == 1
			if want := w.Alive && w.memPending < mlp; got != want {
				return fmt.Errorf("SM%d sched %d: runnable bit of warp %d (rank %d) = %v, want %v (alive=%v memPending=%d)",
					sm.id, s, i, r, got, want, w.Alive, w.memPending)
			}
		}
		for r := len(sc.order); r < len(sc.runnable)*64; r++ {
			if sc.runnable[r>>6]>>(r&63)&1 == 1 {
				return fmt.Errorf("SM%d sched %d: runnable bit %d set past the order (len %d)", sm.id, s, r, len(sc.order))
			}
		}
	}
	return nil
}

// checkPickers compares the runnable-set picker with the linear oracle on
// every scheduler of the SM at the cycle: same warp, and on failure the
// same future wake cycle; with and without the greedy check. It also
// checks the caches the picker trusts: the gate bits against the live
// policy gates, and each scheduler's idle bound — while cycle < idleUntil
// the linear scan must find no warp and no wake cycle before the bound.
func (sm *SM) checkPickers(cycle int64) error {
	if err := sm.runnableErr(); err != nil {
		return err
	}
	if err := sm.GateCacheErr(); err != nil {
		return err
	}
	for s := range sm.scheds {
		if until := sm.scheds[s].idleUntil; cycle < until {
			if w, f := sm.linearPickWarp(s, cycle, true); w >= 0 || f < until {
				return fmt.Errorf("SM%d sched %d cycle %d: idle until %d, but the linear scan = (%d, %d)", sm.id, s, cycle, until, w, f)
			}
		}
	}
	for s := range sm.scheds {
		w, f := sm.pickWarp(s, cycle)
		ow, of := sm.linearPickWarp(s, cycle, true)
		if w != ow || (w < 0 && f != of) {
			return fmt.Errorf("SM%d sched %d cycle %d: pickWarp = (%d, %d), linear scan = (%d, %d)", sm.id, s, cycle, w, f, ow, of)
		}
		w, f = sm.oldestReady(s, cycle)
		ow, of = sm.linearPickWarp(s, cycle, false)
		if w != ow || (w < 0 && f != of) {
			return fmt.Errorf("SM%d sched %d cycle %d: oldestReady = (%d, %d), linear scan = (%d, %d)", sm.id, s, cycle, w, f, ow, of)
		}
	}
	return nil
}

// TestStaleRankAfterRelaunch is the regression test for a warp that dies
// with loads in flight. Its death removes it from the age order; a later
// CTA launch rebuilds the order and hands its old rank to another warp. If
// the dead warp kept that rank, its late fill would rewrite the other
// warp's runnable bit. The scenario: two CTAs of one-load warps issue and
// die with their loads pending, the second CTA's fills land and it
// completes, a new CTA launches into its slot, and then the first CTA's
// fills land.
func TestStaleRankAfterRelaunch(t *testing.T) {
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	cfg.GPU.NumSchedulers = 1
	cfg.GPU.MaxWarpMLP = 2
	k := workload.NewKernel("dies-loading",
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
		nil, 0, 1, 1, 2, 8, 16)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	sm := g.sms[0]
	check := func(step string, cycle int64) {
		t.Helper()
		if err := sm.checkPickers(cycle); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	var cycle int64
	for seq := 0; seq < 2; seq++ {
		if !sm.launchCTA(seq, cycle) {
			t.Fatalf("launching CTA %d failed", seq)
		}
	}
	check("launching CTAs 0 and 1", cycle)

	// Each warp's only instruction is its load: it issues and dies with
	// the line request pending. Collect the requests as they leave.
	fills := map[int]*memtypes.Request{} // by warp slot
	for ; cycle < 200 && len(fills) < 4; cycle++ {
		sm.tick(cycle)
		for g.toL2.Pending() > 0 {
			for _, req := range g.toL2.Deliver(neverWake) {
				fills[req.WarpID] = req
			}
		}
		check(fmt.Sprintf("tick %d", cycle), cycle+1)
	}
	for slot := 0; slot < 4; slot++ {
		w := &sm.warps[slot]
		if w.Alive || w.memPending != 1 || fills[slot] == nil {
			t.Fatalf("warp %d: alive=%v memPending=%d request=%v; want dead with one load in flight",
				slot, w.Alive, w.memPending, fills[slot] != nil)
		}
	}

	// CTA 1 (slots 2, 3) completes; CTA 2 launches into its slot.
	sm.handleResponse(fills[2], cycle)
	sm.handleResponse(fills[3], cycle)
	if sm.ctas[1].Resident {
		t.Fatal("CTA 1 did not complete after its fills")
	}
	if !sm.launchCTA(2, cycle) {
		t.Fatal("relaunching into the freed slot failed")
	}
	check("launching CTA 2", cycle)

	// CTA 0's late fills land on warps outside the order.
	for _, slot := range []int{0, 1} {
		sm.handleResponse(fills[slot], cycle)
		check(fmt.Sprintf("late fill of dead warp %d", slot), cycle)
	}
	if sm.ctas[0].Resident {
		t.Fatal("CTA 0 did not complete after its late fills")
	}
	// CTA 2's warps are untouched: both runnable, and the oldest comes
	// first in the age walk.
	if w, _ := sm.oldestReady(0, cycle); w != 2 {
		t.Fatalf("oldestReady = %d, want warp 2 (CTA 2's oldest warp)", w)
	}
}
