package sim

import (
	"fmt"
	"math/bits"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/icnt"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/regfile"
	"github.com/linebacker-sim/linebacker/internal/ring"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Warp is one resident warp context.
type Warp struct {
	Alive   bool
	CTASlot int
	Idx     int // index within the CTA
	Seq     int // global CTA launch sequence (age for GTO)

	iter       int
	pcIdx      int
	readyAt    int64
	memPending int  // outstanding line requests of the current load
	retired    bool // warp fully done, including outstanding memory
	// rank is the warp's position in its scheduler's age order, -1 when the
	// warp is not in it (dead, or never launched). See gtoSched.
	rank int
}

// ready reports whether the warp can issue at the cycle. A warp keeps
// issuing past outstanding loads up to the configured memory-level
// parallelism (mlp line requests in flight).
func (w *Warp) ready(cycle int64, mlp int) bool {
	return w.Alive && w.memPending < mlp && w.readyAt <= cycle
}

// CTASlotInfo describes one CTA slot of an SM.
type CTASlotInfo struct {
	Resident  bool
	Seq       int
	FirstRN   int // first warp-register number of the CTA's allocation
	RegCount  int // warp-registers allocated
	WarpsLive int
}

// lsuOp is one line request waiting for the load/store unit. The address
// context is captured at issue so a draining store cannot be corrupted by
// the warp slot being recycled.
type lsuOp struct {
	warp    *Warp
	loadIdx int
	req     int
	isStore bool
	ctx     workload.Ctx
}

// SMStats counts per-SM pipeline and memory events.
type SMStats struct {
	Retired     int64
	IssueIdle   int64    // cycles a scheduler found no ready warp
	LoadReqs    [5]int64 // indexed by Outcome
	StoreReqs   int64
	CTALaunches int64
	CTADone     int64
}

// SM is one streaming multiprocessor.
type SM struct {
	id     int
	cfg    *config.Config
	kernel *workload.Kernel

	l1 *cache.Cache
	rf *regfile.RegFile

	warps []Warp
	ctas  []CTASlotInfo

	maxResidentCTAs int
	// freeSlots counts non-resident CTA slots — the O(1) answer behind
	// HasFreeSlot, maintained by launchCTA and completeCTA.
	freeSlots   int
	warpsPerCTA int

	// GTO scheduler state: the last warp each scheduler issued from, and
	// each scheduler's age order, runnable set, gate bits and idle bound.
	// ageSlots is scratch for rebuildOrder. gatesStale marks every
	// scheduler's open bits as out of date (set by rebuildOrder and
	// GatesChanged, cleared by the next refreshGates).
	lastIssued []int
	scheds     []gtoSched
	ageSlots   []int
	gatesStale bool

	lsu      ring.Buffer[lsuOp]
	lsuWidth int

	// toL2 and pool are the GPU's request link and request pool: a line
	// request enters the interconnect the moment the SM issues it. held
	// keeps the requests raised outside the SM's tick — a fill in the
	// response stage can complete a CTA, and Linebacker then starts a
	// register restore — until the SM's next step, where sendHeld injects
	// them ahead of that step's own sends. ticking marks the tick.
	toL2    *icnt.Link
	pool    *memtypes.RequestPool
	held    []*memtypes.Request
	ticking bool

	// waiters maps each line with an outstanding L1 fill to the warps
	// waiting on it, one entry per L1 MSHR entry. Delivered lists go back
	// to spareWaits, so a miss reuses an old list instead of allocating.
	waiters    cache.LineTable[[]*Warp]
	spareWaits [][]*Warp

	pol SMPolicy

	// nextWake caches this SM's next event cycle (see event.go): while the
	// run clock is below it, stepSM replaces the tick with the closed-form
	// accruals of skipCycles. Purely an engine shortcut — simulated state
	// is bit-identical either way. Invalidated (set to 0) by the two
	// external inputs an SM has: a response delivery (handleResponse) and
	// a CTA launch (launchCTA). sleepStalled caches the head-of-line MSHR
	// stall verdict for the sleep span — the predicate cannot change while
	// the SM sleeps (only a fill changes it, and a fill resets nextWake),
	// so the per-cycle accrual avoids re-deriving the head's address.
	// scanWake is the merged future-ready minimum gathered by issue()'s
	// failed scheduler scans — valid only for the cycle of an issue-less
	// tick, where it hands stepSM the warp part of NextEvent for free.
	// slept counts the cycles this SM's state advanced through the
	// closed-form sleep/skip path instead of a full tick — per-SM sleeping
	// and global fast-forwards both land here. Diagnostic only (the skip
	// ratio of the benchmark trajectory); never part of Result/StateDump.
	nextWake     int64
	scanWake     int64
	sleepStalled bool
	slept        int64

	// Probe, when non-nil, observes every load and store line-request
	// (used by the Figure 2/3 working-set probes and the trace recorder).
	Probe func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64)

	Stats SMStats
}

// lsuWidthDefault is the number of line requests the LSU retires per cycle.
const lsuWidthDefault = 2

// storeIssueLatency is the pipeline cost of issuing a store (the warp does
// not wait for completion).
const storeIssueLatency = 2

// loadIssueLatency is the pipeline cost of issuing a load; completion is
// tracked through the warp's outstanding-request count instead of blocking.
const loadIssueLatency = 2

// fillWakeLatency is the register writeback delay after a fill arrives.
const fillWakeLatency = 4

// newSM builds an SM for the kernel.
func newSM(id int, cfg *config.Config, k *workload.Kernel, toL2 *icnt.Link, pool *memtypes.RequestPool) *SM {
	g := &cfg.GPU
	sm := &SM{
		id:          id,
		cfg:         cfg,
		kernel:      k,
		toL2:        toL2,
		pool:        pool,
		l1:          cache.New(g.L1Bytes, g.L1Ways, g.L1MSHRs, false),
		rf:          regfile.New(g),
		warpsPerCTA: k.WarpsPerCTA,
		lastIssued:  make([]int, g.NumSchedulers),
		scheds:      make([]gtoSched, g.NumSchedulers),
		lsuWidth:    lsuWidthDefault,
		waiters:     cache.NewLineTable[[]*Warp](g.L1MSHRs),
	}
	for i := range sm.lastIssued {
		sm.lastIssued[i] = -1
	}
	sm.maxResidentCTAs = MaxResidentCTAs(g, k)
	sm.warps = make([]Warp, sm.maxResidentCTAs*k.WarpsPerCTA)
	for i := range sm.warps {
		sm.warps[i].rank = -1
	}
	perSched := (len(sm.warps) + g.NumSchedulers - 1) / g.NumSchedulers
	for s := range sm.scheds {
		sm.scheds[s].order = make([]int, 0, perSched)
		sm.scheds[s].runnable = make([]uint64, (perSched+63)/64)
		sm.scheds[s].open = make([]uint64, (perSched+63)/64)
	}
	sm.ageSlots = make([]int, 0, sm.maxResidentCTAs)
	sm.ctas = make([]CTASlotInfo, sm.maxResidentCTAs)
	sm.freeSlots = sm.maxResidentCTAs
	return sm
}

// MaxResidentCTAs returns how many CTAs of the kernel fit on one SM given
// the Table 1 residency limits (warps, threads, CTA slots, register file).
func MaxResidentCTAs(g *config.GPU, k *workload.Kernel) int {
	byWarps := g.MaxWarpsPerSM / k.WarpsPerCTA
	byThreads := g.MaxThreadsPerSM / (k.WarpsPerCTA * g.SIMDWidth)
	byRegs := g.WarpRegisters() / k.RegsPerCTA()
	n := byWarps
	if byThreads < n {
		n = byThreads
	}
	if byRegs < n {
		n = byRegs
	}
	if g.MaxCTAsPerSM < n {
		n = g.MaxCTAsPerSM
	}
	if n < 1 {
		n = 1
	}
	return n
}

// --- accessors used by policies ---

// ID returns the SM index.
func (sm *SM) ID() int { return sm.id }

// L1 returns the SM's data cache.
func (sm *SM) L1() *cache.Cache { return sm.l1 }

// RF returns the SM's register file.
func (sm *SM) RF() *regfile.RegFile { return sm.rf }

// Kernel returns the running kernel.
func (sm *SM) Kernel() *workload.Kernel { return sm.kernel }

// Config returns the run configuration.
func (sm *SM) Config() *config.Config { return sm.cfg }

// MaxResident returns the CTA residency limit for this kernel.
func (sm *SM) MaxResident() int { return sm.maxResidentCTAs }

// CTA returns the slot info (copy).
func (sm *SM) CTA(slot int) CTASlotInfo { return sm.ctas[slot] }

// ResidentCTAs counts resident CTAs: every slot that is not free.
func (sm *SM) ResidentCTAs() int { return sm.maxResidentCTAs - sm.freeSlots }

// CTAIssuing reports whether any warp of the CTA in the slot still has
// instructions to issue. A resident CTA without one is only waiting for
// its last loads to land, and completes without issuing again.
func (sm *SM) CTAIssuing(slot int) bool {
	for _, w := range sm.warps[slot*sm.warpsPerCTA : (slot+1)*sm.warpsPerCTA] {
		if w.Alive {
			return true
		}
	}
	return false
}

// Retired returns cumulative retired warp instructions.
func (sm *SM) Retired() int64 { return sm.Stats.Retired }

// FreeSlot returns a free CTA slot index, or -1.
func (sm *SM) FreeSlot() int {
	if sm.freeSlots == 0 {
		return -1
	}
	for i := range sm.ctas {
		if !sm.ctas[i].Resident {
			return i
		}
	}
	return -1
}

// HasFreeSlot reports whether any CTA slot is free — the O(1) form of
// FreeSlot() >= 0, for the dispatch stage and the event probe, both of
// which test eligibility every cycle.
func (sm *SM) HasFreeSlot() bool { return sm.freeSlots > 0 }

// SendRegTraffic emits one register backup (write) or restore (read) line
// request directly to off-chip memory. rn identifies the register; the
// paper maps it to a dedicated backup region (here one line per register at
// a reserved address range). The request is returned so the policy can
// match the completion in OnRegResponse.
func (sm *SM) SendRegTraffic(kind memtypes.Kind, rn int, cycle int64) *memtypes.Request {
	if kind != memtypes.RegBackup && kind != memtypes.RegRestore {
		//lbvet:panic caller bug, not a run-time condition: only the two register kinds are valid here
		panic(fmt.Sprintf("sim: SendRegTraffic kind %v", kind))
	}
	const backupRegion = uint64(1) << 60
	line := memtypes.LineAddr(backupRegion + uint64(sm.id)<<20 + uint64(rn)*memtypes.LineSize)
	req := sm.pool.Get()
	req.Line, req.Kind, req.SM, req.WarpID, req.IssueCycle, req.Meta = line, kind, sm.id, -1, cycle, rn
	if sm.ticking {
		sm.toL2.Send(req, cycle)
	} else {
		sm.held = append(sm.held, req)
	}
	return req
}

// sendHeld injects the requests held since the SM's last tick, in the
// order they were raised.
func (sm *SM) sendHeld(cycle int64) {
	for i, req := range sm.held {
		sm.toL2.Send(req, cycle)
		sm.held[i] = nil
	}
	sm.held = sm.held[:0]
}

// ReleaseCTARegs frees the register allocation of a still-resident CTA
// whose architectural state has been backed up off-chip (Linebacker's C=1
// point). The slot stays resident; its FRN becomes meaningless until
// ReserveCTARegs.
func (sm *SM) ReleaseCTARegs(slot int) {
	if !sm.ctas[slot].Resident {
		//lbvet:panic policy bug, not a run-time condition: releasing an unoccupied slot is mis-accounting
		panic(fmt.Sprintf("sim: ReleaseCTARegs on empty slot %d", slot))
	}
	sm.rf.Free(slot)
	sm.ctas[slot].FirstRN = -1
}

// ReserveCTARegs re-allocates register space for an inactive CTA about to
// be restored, updating the slot's FRN.
func (sm *SM) ReserveCTARegs(slot, count int) (first int, ok bool) {
	if !sm.ctas[slot].Resident {
		//lbvet:panic policy bug, not a run-time condition: reserving into an unoccupied slot is mis-accounting
		panic(fmt.Sprintf("sim: ReserveCTARegs on empty slot %d", slot))
	}
	first, ok = sm.rf.Alloc(slot, count)
	if ok {
		sm.ctas[slot].FirstRN = first
	}
	return first, ok
}

// --- CTA lifecycle ---

// launchCTA places grid CTA seq into a free slot; returns false when no
// slot or registers are available.
func (sm *SM) launchCTA(seq int, cycle int64) bool {
	slot := sm.FreeSlot()
	if slot < 0 {
		return false
	}
	first, ok := sm.rf.Alloc(slot, sm.kernel.RegsPerCTA())
	if !ok {
		return false
	}
	sm.ctas[slot] = CTASlotInfo{
		Resident: true, Seq: seq,
		FirstRN: first, RegCount: sm.kernel.RegsPerCTA(),
		WarpsLive: sm.warpsPerCTA,
	}
	for i := 0; i < sm.warpsPerCTA; i++ {
		w := &sm.warps[slot*sm.warpsPerCTA+i]
		*w = Warp{Alive: true, CTASlot: slot, Idx: i, Seq: seq}
	}
	sm.freeSlots--
	sm.rebuildOrder()
	sm.Stats.CTALaunches++
	sm.pol.OnCTALaunch(slot, seq, cycle)
	// External input: fresh warps mean fresh events (see event.go).
	sm.nextWake = 0
	return true
}

// completeCTA retires the CTA in the slot.
func (sm *SM) completeCTA(slot int, cycle int64) {
	sm.ctas[slot].Resident = false
	sm.freeSlots++
	sm.rf.Free(slot)
	sm.Stats.CTADone++
	sm.pol.OnCTAComplete(slot, cycle)
}

// Busy reports whether any CTA is resident or memory work is in flight.
func (sm *SM) Busy() bool {
	return sm.freeSlots < sm.maxResidentCTAs || sm.lsu.Len() > 0 || sm.waiters.Len() > 0
}

// --- per-cycle pipeline ---

// tick advances the SM one cycle: schedulers issue, the LSU retires line
// requests, and the policy runs. The return value reports whether the
// front-end did any work (issued an instruction or moved an LSU request) —
// a cheap activity hint stepSM uses to decide when an event rescan is
// worth it; it carries no correctness weight (see event.go).
func (sm *SM) tick(cycle int64) bool {
	sm.ticking = true
	issued := sm.issue(cycle)
	moved := sm.runLSU(cycle)
	sm.pol.OnCycle(cycle)
	sm.ticking = false
	return issued || moved
}

// issue runs the GTO warp schedulers; true if any of them issued. When no
// scheduler issues, every scheduler performed a full scan of its warp
// partition (or holds the bound of one, see idleUntil), and the merged
// future-ready minimum is cached in scanWake — the per-SM sleeper
// (event.go) reads it instead of re-scanning.
func (sm *SM) issue(cycle int64) bool {
	ns := sm.cfg.GPU.NumSchedulers
	issued := false
	future := neverWake
	for s := 0; s < ns; s++ {
		sc := &sm.scheds[s]
		if cycle < sc.idleUntil {
			sm.Stats.IssueIdle++
			future = min(future, sc.idleUntil)
			continue
		}
		w, f := sm.pickWarp(s, cycle)
		if w < 0 {
			sm.Stats.IssueIdle++
			sc.idleUntil = f
			future = min(future, f)
			continue
		}
		issued = true
		sm.lastIssued[s] = w
		sm.execute(&sm.warps[w], cycle)
	}
	sm.scanWake = future
	return issued
}

// pickWarp implements greedy-then-oldest among the scheduler's warps. The
// second result is the earliest readyAt among this scheduler's alive,
// under-MLP warps that are not ready yet (neverWake if none) — gathered
// for free during the failed scan; meaningful only when no warp is picked.
func (sm *SM) pickWarp(sched int, cycle int64) (int, int64) {
	if sm.gatesStale {
		sm.refreshGates()
	}
	// Greedy: stick with the last issued warp while it remains ready. A
	// ready warp is alive, so it holds a rank in this scheduler's order.
	if last := sm.lastIssued[sched]; last >= 0 {
		w := &sm.warps[last]
		if w.ready(cycle, sm.cfg.GPU.MaxWarpMLP) && sm.scheds[sched].open[w.rank>>6]>>(w.rank&63)&1 == 1 {
			return last, 0
		}
	}
	return sm.oldestReady(sched, cycle)
}

// oldestReady walks the scheduler's runnable set oldest-first and returns
// the first warp that is ready at the cycle and whose gate bit is open:
// the smallest (CTA seq, warp idx) among eligible warps, because each
// word is walked in age order and its open warps come first. When no warp
// qualifies it returns -1 and the earliest readyAt among the runnable
// warps not ready yet, whatever their gates say (neverWake if none): every
// runnable warp was visited, and warps outside the set (dead, or at the
// MLP limit) wake only through finishLoad.
func (sm *SM) oldestReady(sched int, cycle int64) (int, int64) {
	if sm.gatesStale {
		sm.refreshGates()
	}
	sc := &sm.scheds[sched]
	future := neverWake
	for wi, word := range sc.runnable {
		// Open warps first: the oldest ready one is the pick. A word's
		// ranks are all older than the next word's, so finishing one word
		// before the next keeps the walk in age order.
		open, gated := word&sc.open[wi], word&^sc.open[wi]
		for open != 0 {
			i := sc.order[wi<<6|bits.TrailingZeros64(open)]
			open &= open - 1
			if r := sm.warps[i].readyAt; r > cycle {
				future = min(future, r)
				continue
			}
			return i, future
		}
		// Gated warps can only contribute their wake cycle.
		for gated != 0 {
			i := sc.order[wi<<6|bits.TrailingZeros64(gated)]
			gated &= gated - 1
			if r := sm.warps[i].readyAt; r > cycle {
				future = min(future, r)
			}
		}
	}
	return -1, future
}

// gtoSched is one scheduler's view of its warps (warp slots i with
// i mod NumSchedulers == the scheduler's index). order lists the live
// warps oldest-first by (CTA seq, warp idx); bit r of runnable caches
// whether warps[order[r]] is Alive with memPending below MaxWarpMLP. The
// set is a cache of that pure predicate (DESIGN.md §10): rebuildOrder
// recomputes it wholesale, and syncRunnable refreshes one bit wherever
// memPending changes.
//
// Bit r of open caches the policy gates of warps[order[r]]:
// CTAActive(slot) && WarpActive(i). Policies announce every change to the
// state their gates read through SM.GatesChanged, and the next pick
// recomputes the bits (refreshGates) instead of every pick polling two
// interface methods per warp.
//
// idleUntil bounds a failed pick: the scheduler's last pick found no
// eligible warp, and the earliest not-ready runnable warp becomes ready at
// idleUntil, so every pick before that cycle fails too, with the same wake
// cycle.
// The bound is exact because only execute lowers a readyAt, and execute
// runs only after a successful pick on the same scheduler; every other
// input of the pick resets it to 0 — the runnable set (syncRunnable,
// rebuildOrder) and the gates (GatesChanged).
type gtoSched struct {
	order     []int
	runnable  []uint64
	open      []uint64
	idleUntil int64
}

// GatesChanged announces that the policy changed state its CTAActive or
// WarpActive answers read. The SM recomputes its cached gate bits on the
// next pick, and every scheduler's idle bound is dropped. Policies must
// call it after every such write, in whatever hook it happens (in Attach
// it is optional: no warp is resident yet, and every CTA launch marks the
// bits stale); a missed call leaves the schedulers issuing under stale
// gates, which the runtime checker's gate-cache rule and lbvet's
// gateannounce analyzer both catch.
func (sm *SM) GatesChanged() {
	sm.gatesStale = true
	for s := range sm.scheds {
		sm.scheds[s].idleUntil = 0
	}
}

// refreshGates recomputes every scheduler's open bits from the live
// policy gates.
func (sm *SM) refreshGates() {
	sm.gatesStale = false
	for s := range sm.scheds {
		sc := &sm.scheds[s]
		clear(sc.open)
		for r, i := range sc.order {
			if sm.pol.CTAActive(sm.warps[i].CTASlot) && sm.pol.WarpActive(i) {
				sc.open[r>>6] |= 1 << (r & 63)
			}
		}
	}
}

// rebuildOrder recomputes every scheduler's age order, the warps' ranks and
// the runnable bits from scratch, and marks the gate bits stale (the ranks
// they are indexed by moved). It runs when the set of live warps changes:
// on a CTA launch and on a warp's death. Every rank is reset first, so a
// warp that left the order (dead, possibly with loads still in flight)
// holds -1 and its late finishLoad cannot touch a bit that now belongs to
// another warp.
func (sm *SM) rebuildOrder() {
	sm.GatesChanged()
	for s := range sm.scheds {
		sc := &sm.scheds[s]
		sc.order = sc.order[:0]
		clear(sc.runnable)
	}
	for i := range sm.warps {
		sm.warps[i].rank = -1
	}
	// Resident slots in launch order (insertion sort: a handful of slots,
	// already sorted but for the newest launch).
	slots := sm.ageSlots[:0]
	for slot := range sm.ctas {
		if !sm.ctas[slot].Resident {
			continue
		}
		slots = append(slots, slot)
		for j := len(slots) - 1; j > 0 && sm.ctas[slots[j]].Seq < sm.ctas[slots[j-1]].Seq; j-- {
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	sm.ageSlots = slots
	ns := len(sm.scheds)
	for _, slot := range slots {
		for idx := 0; idx < sm.warpsPerCTA; idx++ {
			i := slot*sm.warpsPerCTA + idx
			w := &sm.warps[i]
			if !w.Alive {
				continue
			}
			sc := &sm.scheds[i%ns]
			w.rank = len(sc.order)
			sc.order = append(sc.order, i)
			sm.syncRunnable(w)
		}
	}
}

// syncRunnable sets the warp's runnable bit to the predicate it caches:
// Alive && memPending < MaxWarpMLP, and drops its scheduler's idle bound.
// A warp outside the order (rank -1) has no bit.
func (sm *SM) syncRunnable(w *Warp) {
	if w.rank < 0 {
		return
	}
	sc := &sm.scheds[warpIndex(sm, w)%len(sm.scheds)]
	sc.idleUntil = 0
	word, bit := &sc.runnable[w.rank>>6], uint64(1)<<(w.rank&63)
	if w.Alive && w.memPending < sm.cfg.GPU.MaxWarpMLP {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// execute issues the warp's next instruction.
func (sm *SM) execute(w *Warp, cycle int64) {
	ins := &sm.kernel.Body[w.pcIdx]
	sm.Stats.Retired++
	// Operand collector traffic: ~3 register accesses per instruction.
	base := sm.ctas[w.CTASlot].FirstRN + w.Idx*sm.kernel.RegsPerWarp()
	opReg := base + (w.pcIdx*3)%maxi(sm.kernel.RegsPerWarp()-2, 1)
	sm.rf.AccessOperands(opReg, 3, cycle)

	switch ins.Op {
	case workload.Compute:
		w.readyAt = cycle + int64(ins.Latency)
	case workload.LoadOp:
		l := &sm.kernel.Loads[ins.LoadIdx]
		if !l.ActiveAt(w.iter) {
			w.readyAt = cycle + 1 // predicated off this iteration
			break
		}
		w.readyAt = cycle + loadIssueLatency
		w.memPending += l.Coalesced
		sm.syncRunnable(w)
		for r := 0; r < l.Coalesced; r++ {
			sm.lsu.Push(lsuOp{warp: w, loadIdx: ins.LoadIdx, req: r, ctx: sm.ctx(w)})
		}
	case workload.StoreOp:
		l := &sm.kernel.Loads[ins.LoadIdx]
		if !l.ActiveAt(w.iter) {
			w.readyAt = cycle + 1
			break
		}
		w.readyAt = cycle + storeIssueLatency
		for r := 0; r < l.Coalesced; r++ {
			sm.lsu.Push(lsuOp{warp: w, loadIdx: ins.LoadIdx, req: r, isStore: true, ctx: sm.ctx(w)})
		}
	}
	sm.advance(w, cycle)
}

// advance moves the warp past the issued instruction, retiring the warp and
// possibly its CTA at the end of the last iteration.
func (sm *SM) advance(w *Warp, cycle int64) {
	w.pcIdx++
	if w.pcIdx < len(sm.kernel.Body) {
		return
	}
	w.pcIdx = 0
	w.iter++
	if w.iter < sm.kernel.Iterations {
		return
	}
	w.Alive = false
	sm.rebuildOrder()
	if w.memPending == 0 {
		sm.retireWarp(w, cycle)
	}
	// Otherwise finishLoad retires the warp when its last request lands.
}

// retireWarp finalises a finished warp and completes its CTA when it is the
// last one standing.
func (sm *SM) retireWarp(w *Warp, cycle int64) {
	if w.retired {
		return
	}
	w.retired = true
	slot := w.CTASlot
	sm.ctas[slot].WarpsLive--
	if sm.ctas[slot].WarpsLive == 0 {
		sm.completeCTA(slot, cycle)
	}
}

// runLSU retires up to lsuWidth line requests; true if any moved.
func (sm *SM) runLSU(cycle int64) bool {
	n := 0
	for ; n < sm.lsuWidth && sm.lsu.Len() > 0; n++ {
		if !sm.processOp(sm.lsu.Front(), cycle) {
			break // head-of-line stall (MSHR full); retry next cycle
		}
		sm.lsu.Pop()
	}
	return n > 0
}

// ctx builds the address-generation context for a warp.
func (sm *SM) ctx(w *Warp) workload.Ctx {
	return workload.Ctx{SM: sm.id, CTASeq: w.Seq, Warp: w.Idx, Iter: w.iter}
}

// processOp services one line request; false means stall (retry).
func (sm *SM) processOp(op lsuOp, cycle int64) bool {
	w := op.warp
	l := &sm.kernel.Loads[op.loadIdx]
	line := sm.kernel.Address(op.loadIdx, op.ctx, op.req)

	if op.isStore {
		sm.Stats.StoreReqs++
		if sm.Probe != nil {
			sm.Probe(warpIndex(sm, w), l.PC, line, true, cycle)
		}
		sm.pol.OnStore(line, cycle)
		sm.l1.Store(line)
		req := sm.pool.Get()
		req.Line, req.Kind, req.SM, req.WarpID, req.PC, req.IssueCycle =
			line, memtypes.Store, sm.id, warpIndex(sm, w), l.PC, cycle
		sm.toL2.Send(req, cycle)
		return true
	}

	// Structural stall check first so a retried request has no side
	// effects (probes, monitors, energy counters fire exactly once).
	// Policy hooks never touch L1 tag state (see lsuHeadStalled), so the
	// residency probed here still holds at the fast path below.
	resident := sm.l1.Probe(line)
	if !resident && !sm.l1.HasOutstanding(line) && !sm.l1.MSHRFree() {
		sm.l1.Stats.MSHRStalls++
		return false
	}
	if sm.Probe != nil {
		sm.Probe(warpIndex(sm, w), l.PC, line, false, cycle)
	}
	hpc := memtypes.HashPC(l.PC, sm.cfg.LB.HPCBits)
	extra := sm.pol.ExtraL1Latency(line, cycle)

	// Fast path: resident line.
	if resident {
		sm.l1.Load(line, hpc, true)
		sm.finishLoad(w, cycle, int64(sm.cfg.GPU.L1HitLatency+extra))
		sm.Stats.LoadReqs[OutHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutHit, cycle)
		return true
	}
	// Victim cache probe before going below. A miss reports its serial
	// tag-search cost, which delays the downstream fetch's completion.
	vhit, vlat := sm.pol.ProbeVictim(line, l.PC, cycle)
	if vhit {
		sm.finishLoad(w, cycle, int64(sm.cfg.GPU.L1HitLatency+extra+vlat))
		sm.Stats.LoadReqs[OutRegHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutRegHit, cycle)
		return true
	}
	allocate := sm.pol.AllocateL1(warpIndex(sm, w), l.PC)
	res, ev, evicted := sm.l1.Load(line, hpc, allocate)
	if evicted {
		sm.pol.OnEviction(ev, cycle)
	}
	switch res {
	case cache.Stall:
		// Unreachable: the structural check above covers MSHR exhaustion.
		return false
	case cache.HitPending:
		sm.addWaiter(line, w)
		sm.Stats.LoadReqs[OutPendingHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutPendingHit, cycle)
	case cache.Miss, cache.MissNoAlloc:
		out := OutMiss
		if res == cache.MissNoAlloc {
			out = OutBypass
		}
		sm.addWaiter(line, w)
		req := sm.pool.Get()
		req.Line, req.Kind, req.SM, req.WarpID, req.PC, req.IssueCycle, req.ExtraLatency =
			line, memtypes.Load, sm.id, warpIndex(sm, w), l.PC, cycle, vlat
		sm.toL2.Send(req, cycle)
		sm.Stats.LoadReqs[out]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, out, cycle)
	case cache.Hit:
		// Race between Probe and Load cannot happen single-threaded, but
		// keep the path correct.
		sm.finishLoad(w, cycle, int64(sm.cfg.GPU.L1HitLatency+extra))
		sm.Stats.LoadReqs[OutHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutHit, cycle)
	}
	return true
}

// finishLoad resolves one of the warp's outstanding line requests after the
// given latency.
func (sm *SM) finishLoad(w *Warp, cycle, latency int64) {
	if w.memPending > 0 {
		w.memPending--
		sm.syncRunnable(w)
	}
	// The load's value becomes available `latency` cycles out; consumers
	// are modelled through the MLP limit rather than a hard block, so the
	// warp's readyAt is only pushed when it was already waiting at the
	// limit (scoreboard full).
	if w.memPending >= sm.cfg.GPU.MaxWarpMLP-1 {
		if t := cycle + latency; t > w.readyAt {
			w.readyAt = t
		}
	}
	if !w.Alive && w.memPending == 0 {
		sm.retireWarp(w, cycle)
	}
}

// handleResponse completes a request that returned from the memory system.
// This is a request death point: the object goes back to the pool once every
// waiter is woken (loads) or the policy has observed the completion
// (register traffic) — no component retains the pointer past those calls.
func (sm *SM) handleResponse(req *memtypes.Request, cycle int64) {
	// External input: whatever wake cycle the SM advertised is stale now —
	// a fill can unstall the LSU head, wake waiters, retire warps.
	sm.nextWake = 0
	switch req.Kind {
	case memtypes.Load:
		sm.l1.Fill(req.Line)
		ws, _ := sm.waiters.Delete(req.Line)
		for _, w := range ws {
			sm.finishLoad(w, cycle, fillWakeLatency+int64(req.ExtraLatency))
		}
		sm.spareWaits = append(sm.spareWaits, ws[:0])
		sm.pool.Put(req)
	case memtypes.RegBackup, memtypes.RegRestore:
		sm.pol.OnRegResponse(req, cycle)
		sm.pool.Put(req)
	}
}

// addWaiter registers the warp as waiting on the line's outstanding fill.
// A line's first waiter takes a list from spareWaits when one is left.
func (sm *SM) addWaiter(line memtypes.LineAddr, w *Warp) {
	ws := sm.waiters.Get(line)
	if ws == nil {
		var fresh []*Warp
		if n := len(sm.spareWaits); n > 0 {
			fresh, sm.spareWaits = sm.spareWaits[n-1], sm.spareWaits[:n-1]
		}
		ws = sm.waiters.Put(line, fresh)
	}
	*ws = append(*ws, w)
}

func warpIndex(sm *SM, w *Warp) int {
	return w.CTASlot*sm.warpsPerCTA + w.Idx
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
