package sim

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestStepAllocCeiling pins the steady-state allocation cost of GPU.Step.
// Before the request pool and ring-buffer queues, a warmed step averaged ~9
// heap allocations (fresh Request objects, container/heap boxing, reslice
// leaks); pooling brought it down to ~1.6, almost all of it on L1 misses
// (a heap-allocated MSHR entry and a fresh waiter list per missed line).
// The inline MSHR table and recycled waiter lists removed those; what is
// left is the occasional growth of a map or the cold-miss seen-set. The
// ceiling sits well under one allocation per step, so a regression that
// reintroduces per-miss or per-request allocation fails it.
func TestStepAllocCeiling(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(400, 48), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: pool and ring high-water marks are reached once the memory
	// system is saturated.
	for i := 0; i < 2000; i++ {
		g.Step()
	}
	const steps = 2000
	perStep := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			g.Step()
		}
	}) / steps
	t.Logf("GPU.Step allocates %.3f objects/step steady-state", perStep)
	const ceiling = 0.25
	if perStep > ceiling {
		t.Errorf("GPU.Step allocates %.2f objects/step steady-state, ceiling %v", perStep, ceiling)
	}
}

// TestL1MissFillAllocatesNothing drives one load line-request through the
// whole L1 miss path of an SM — MSHR entry, waiter registration, request
// into the interconnect — and back through its fill, and requires the
// round trip to allocate nothing once the pool and tables are warm.
func TestL1MissFillAllocatesNothing(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(400, 48), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	sm := g.sms[0]
	if !sm.launchCTA(0, 0) {
		t.Fatal("launching a CTA failed")
	}
	w := &sm.warps[0]
	var cycle int64
	var missed bool
	fill := func(req *memtypes.Request) { sm.handleResponse(req, cycle) }
	roundTrip := func() {
		cycle++
		op := lsuOp{warp: w, loadIdx: 1, req: 0, ctx: workload.Ctx{SM: sm.id, CTASeq: w.Seq, Warp: w.Idx, Iter: int(cycle % 8)}}
		line := sm.kernel.Address(op.loadIdx, op.ctx, op.req)
		w.memPending = 1
		if !sm.processOp(op, cycle) || g.toL2.Pending() != 1 {
			return
		}
		missed = true
		g.toL2.DeliverEach(neverWake, fill)
		sm.l1.Invalidate(line)
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 {
		t.Errorf("an L1 miss and its fill allocate %v objects, want 0", allocs)
	}
	if !missed || sm.l1.OutstandingFills() != 0 || sm.WaiterLines() != 0 {
		t.Fatalf("round trip did not miss and fill: missed=%v fills=%d waiterLines=%d",
			missed, sm.l1.OutstandingFills(), sm.WaiterLines())
	}
}
