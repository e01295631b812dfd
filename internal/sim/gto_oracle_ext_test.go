package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// pickerOracle is a fault injector that injects nothing: at the start of
// every ticked cycle's SM phase it checks each SM's runnable-set picker
// against the linear GTO scan (SM.CheckPickers). Installing an injector
// turns per-SM sleeping off, so every SM runs its schedulers on every
// ticked cycle; its empty NextEvent keeps global cycle skipping on, so
// SM.NextEvent's runnable-set walk decides the skips.
type pickerOracle struct {
	err     error
	checks  int64
	longest int // most live warps seen on one scheduler
}

func (o *pickerOracle) Stage(g *sim.GPU, stage string, cycle int64) {
	if stage != "sm" || o.err != nil {
		return
	}
	for _, sm := range g.SMs() {
		if err := sm.CheckPickers(cycle); err != nil {
			o.err = err
			return
		}
		o.longest = max(o.longest, sm.LongestSchedOrder())
	}
	o.checks++
}

func (o *pickerOracle) NextEvent(int64) (int64, bool) { return 0, false }

// oracleCase draws a machine and kernel: NumSchedulers in {1,2,4},
// MaxWarpsPerSM up to 128 (so one scheduler's runnable set can span two
// 64-bit words) and MaxWarpMLP in 1..4. Kernels are either a real
// benchmark or a short random one whose warps die and whose CTAs relaunch
// within the run.
func oracleCase(rng *rand.Rand, forceWide bool) (config.Config, *workload.Kernel, string) {
	cfg := config.Default()
	cfg.GPU.NumSMs = 1 + rng.Intn(2)
	cfg.GPU.DRAMBandwidthGBs = 176.25
	cfg.GPU.DRAMChannels = 4
	cfg.GPU.L2Bytes = 512 * 1024
	cfg.LB.WindowCycles = 2000
	cfg.GPU.NumSchedulers = []int{1, 2, 4}[rng.Intn(3)]
	cfg.GPU.MaxWarpsPerSM = 32 * (1 + rng.Intn(4))
	cfg.GPU.MaxWarpMLP = 1 + rng.Intn(4)
	wpc := []int{1, 2, 4, 8}[rng.Intn(4)]
	if forceWide {
		cfg.GPU.NumSchedulers, cfg.GPU.MaxWarpsPerSM, wpc = 1, 128, 4
	}
	cfg.GPU.MaxThreadsPerSM = cfg.GPU.MaxWarpsPerSM * cfg.GPU.SIMDWidth
	cfg.GPU.RegFileBytes = 512 * 1024

	var k *workload.Kernel
	if !forceWide && rng.Intn(3) == 0 {
		names := []string{"S2", "BC", "KM"}
		b, _ := workload.ByName(names[rng.Intn(len(names))])
		k = b.Kernel
	} else {
		var loads []workload.LoadSpec
		for n := 1 + rng.Intn(2); n > 0; n-- {
			loads = append(loads, workload.LoadSpec{
				Pattern: workload.Irregular, Scope: workload.PerSM,
				WorkingSetBytes: 16 * 1024 * (1 + rng.Intn(4)), Coalesced: 1 + rng.Intn(4),
			})
		}
		k = workload.NewKernel("oracle", loads,
			[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
			rng.Intn(4), 1+rng.Intn(8), 4+rng.Intn(20), wpc, 8, 64+rng.Intn(128))
	}
	desc := fmt.Sprintf("%s sms=%d sched=%d warps=%d mlp=%d wpc=%d",
		k.Name, cfg.GPU.NumSMs, cfg.GPU.NumSchedulers, cfg.GPU.MaxWarpsPerSM, cfg.GPU.MaxWarpMLP, k.WarpsPerCTA)
	return cfg, k, desc
}

// TestGTOPickerOracle runs seeded random machines under every gating
// policy family — none (Baseline), CTA throttling (SWL, Linebacker), warp
// throttling (CCWS) and the adversarial pulse policy — and, on every
// ticked cycle, requires the runnable-set picker to agree with the linear
// GTO scan on the picked warp and, when nothing is picked, on the next
// wake cycle.
func TestGTOPickerOracle(t *testing.T) {
	pols := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"baseline", func() sim.Policy { return sim.Baseline{} }},
		{"swl", func() sim.Policy { return schemes.SWL{Limit: 2} }},
		{"ccws", func() sim.Policy { return schemes.CCWS{} }},
		{"linebacker", func() sim.Policy { return core.New() }},
		{"pulse", func() sim.Policy { return sim.NewPulsePolicy(1500) }},
	}
	cases, cycles := 4, int64(20_000)
	if testing.Short() {
		cases, cycles = 2, 8_000
	}
	longest := 0
	for pi, p := range pols {
		for c := 0; c < cases; c++ {
			rng := rand.New(rand.NewSource(int64(1000*pi + c)))
			cfg, k, desc := oracleCase(rng, c == 0)
			t.Run(fmt.Sprintf("%s/%d", p.name, c), func(t *testing.T) {
				g, err := sim.New(cfg, k, p.mk())
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				o := &pickerOracle{}
				g.SetFaultInjector(o)
				g.Run(cycles)
				if o.err != nil {
					t.Fatalf("%s: %v", desc, o.err)
				}
				if o.checks == 0 {
					t.Fatalf("%s: the oracle never ran", desc)
				}
				longest = max(longest, o.longest)
				t.Logf("%s: %d checked cycles of %d, longest scheduler order %d", desc, o.checks, g.Cycle(), o.longest)
			})
		}
	}
	if longest <= 64 {
		t.Errorf("no scheduler held more than %d live warps; the multi-word runnable set went unchecked", longest)
	}
}
