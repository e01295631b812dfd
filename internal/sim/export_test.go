package sim

// Test-only exports for the external test package (sim_test), whose tests
// drive the engine under the shipped schemes of internal/schemes and
// internal/core — packages that import sim and so cannot be imported by
// sim's own tests.

// CheckPickers runs the GTO oracle check of gto_oracle_test.go on the SM
// at the cycle.
func (sm *SM) CheckPickers(cycle int64) error { return sm.checkPickers(cycle) }

// LongestSchedOrder returns the most live warps any one scheduler of the SM
// holds right now.
func (sm *SM) LongestSchedOrder() int {
	n := 0
	for s := range sm.scheds {
		n = max(n, len(sm.scheds[s].order))
	}
	return n
}

// NewPulsePolicy returns event_test.go's adversarial pulse policy.
func NewPulsePolicy(period int64) Policy { return pulsePolicy{period: period} }
