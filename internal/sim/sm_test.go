package sim

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/workload"
)

func computeKernel(latency int) *workload.Kernel {
	return workload.NewKernel("compute",
		nil,
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1, Every: 1 << 20}},
		4, latency, 500, 4, 16, 64)
}

func TestComputeThroughputBound(t *testing.T) {
	// A compute-only kernel with unit latency saturates the schedulers:
	// IPC per SM approaches NumSchedulers.
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	g, err := New(cfg, computeKernel(1), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	r := g.Collect()
	if ipc := r.IPC(); ipc < 3.2 || ipc > 4.01 {
		t.Fatalf("compute-only IPC = %.2f, want near 4 (schedulers)", ipc)
	}
}

func TestMLPLimitRespected(t *testing.T) {
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	cfg.GPU.MaxWarpMLP = 3
	k := workload.NewKernel("mlp",
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 2}},
		nil, 1, 2, 2000, 4, 16, 8)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	for i := 0; i < 30_000; i++ {
		g.Step()
		sm := g.SMs()[0]
		for j := range sm.warps {
			if p := sm.warps[j].memPending; p > maxSeen {
				maxSeen = p
			}
		}
	}
	// A single issue can add Coalesced requests at once, so the bound is
	// MLP-1 (ready check) + Coalesced.
	if maxSeen > cfg.GPU.MaxWarpMLP-1+2 {
		t.Fatalf("outstanding requests %d exceed MLP bound", maxSeen)
	}
	if maxSeen == 0 {
		t.Fatal("no memory parallelism observed")
	}
}

func TestStoresWriteThroughBelowL1(t *testing.T) {
	cfg := testConfig()
	k := workload.NewKernel("stores",
		nil,
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
		1, 2, 200, 4, 16, 8)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(0)
	r := g.Collect()
	if r.Stores == 0 {
		t.Fatal("no stores executed")
	}
	// Every store is forwarded below the (write-evict) L1: the L2 sees all
	// of them, and dirty L2 evictions eventually reach DRAM.
	if got := r.L2.StoreHits + r.L2.StoreMisses; got != r.Stores {
		t.Fatalf("L2 saw %d stores, SMs issued %d", got, r.Stores)
	}
}

func TestGTOGreedyStickiness(t *testing.T) {
	// With long-latency compute, GTO should rotate across warps; with unit
	// latency it should stick to one warp per scheduler (greedy), giving
	// the same IPC but far fewer distinct issuing warps per window.
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	g, err := New(cfg, computeKernel(1), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	sm := g.SMs()[0]
	for i := 0; i < 1000; i++ {
		g.Step()
	}
	// Greedy: the last-issued warp of each scheduler should be issuing
	// repeatedly; its iteration count must far exceed the average.
	maxIter, sumIter, alive := 0, 0, 0
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.Alive {
			continue
		}
		alive++
		sumIter += w.iter
		if w.iter > maxIter {
			maxIter = w.iter
		}
	}
	if alive == 0 {
		t.Fatal("no live warps")
	}
	avg := float64(sumIter) / float64(alive)
	if float64(maxIter) < 2*avg {
		t.Fatalf("greedy warp iter %d not ahead of average %.1f", maxIter, avg)
	}
}

func TestEveryFieldSkipsIterations(t *testing.T) {
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	k := workload.NewKernel("every",
		[]workload.LoadSpec{
			{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1, Every: 4},
		},
		nil, 1, 2, 400, 4, 16, 4)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(0)
	r := g.Collect()
	// 4 CTAs * 4 warps * 400 iters, load active every 4th iteration.
	want := int64(4 * 4 * 400 / 4)
	if got := r.TotalLoadReqs(); got != want {
		t.Fatalf("load requests = %d, want %d", got, want)
	}
}

// TestResidentCTAsCountsSlots checks the O(1) ResidentCTAs against a count
// of resident slots on every cycle of a run whose CTAs launch, complete
// and relaunch into freed slots.
func TestResidentCTAsCountsSlots(t *testing.T) {
	cfg := testConfig()
	g, err := New(cfg, tinyKernel(6, 64), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	for !g.done() && g.Cycle() < 1_000_000 {
		g.Step()
		for _, sm := range g.sms {
			n := 0
			for slot := range sm.ctas {
				if sm.ctas[slot].Resident {
					n++
				}
			}
			if got := sm.ResidentCTAs(); got != n {
				t.Fatalf("cycle %d SM%d: ResidentCTAs = %d, %d slots resident", g.Cycle(), sm.id, got, n)
			}
		}
	}
	var launches, done int64
	for _, sm := range g.sms {
		launches += sm.Stats.CTALaunches
		done += sm.Stats.CTADone
		if sm.Stats.CTALaunches <= int64(sm.maxResidentCTAs) {
			t.Fatalf("SM%d launched %d CTAs into %d slots; no slot was reused", sm.id, sm.Stats.CTALaunches, sm.maxResidentCTAs)
		}
	}
	if launches != 64 || done != 64 {
		t.Fatalf("%d launches, %d completions; want 64 of each", launches, done)
	}
}
