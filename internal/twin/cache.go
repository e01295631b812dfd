package twin

import (
	"context"

	"github.com/linebacker-sim/linebacker/internal/harness"
)

// Cache memoises calibrated models per benchmark with single-flight
// semantics: concurrent requests for the same benchmark share one
// calibration (whose anchor runs are themselves memoised by the runner).
// Failed calibrations are not cached — a transient failure (deadline,
// injected fault) must not poison the benchmark forever.
type Cache struct {
	opt    Options
	models harness.Memo[*Model]
}

// NewCache builds an empty model cache calibrating with opt.
func NewCache(opt Options) *Cache {
	return &Cache{opt: opt}
}

// Model returns the calibrated twin for bench, calibrating through r on
// first use. Callers of an in-flight calibration share its success; a
// caller whose leader failed calibrates again under its own context.
func (c *Cache) Model(ctx context.Context, r *harness.Runner, bench string) (*Model, error) {
	return c.models.Do(ctx, bench, func() (*Model, error) {
		return Calibrate(ctx, r, bench, c.opt)
	})
}

// Len reports how many benchmarks have cached models (for stats).
func (c *Cache) Len() int { return c.models.Len() }
