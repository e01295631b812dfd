package cache

import "github.com/linebacker-sim/linebacker/internal/memtypes"

// StateHash digests the cache's structural state — tag array, LRU stamps,
// MSHR contents and the global access stamp — into one 64-bit fingerprint.
// Every externally visible cache transition (hit, miss, fill, store,
// invalidate, merge into a pending fill) advances the access stamp or
// mutates a line or MSHR entry, so two states with equal hashes are
// equal for the engine's purposes with overwhelming probability.
//
// Deliberately NOT covered: Stats. Counter changes always accompany a
// structural change, with one exception — a retried access stalled on a
// full MSHR mutates only Stats.MSHRStalls — and that exception is exactly
// the per-cycle accrual the cycle-skipping engine reproduces in closed
// form (DESIGN.md §10). The event-lower-bound property test relies on this
// hash being constant across a correctly advertised idle span.
func (c *Cache) StateHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(c.stamp))
	for i := range c.lines {
		ln := &c.lines[i]
		var flags uint64
		if ln.valid {
			flags |= 1
		}
		if ln.pending {
			flags |= 2
		}
		if ln.dirty {
			flags |= 4
		}
		mix(flags)
		mix(uint64(ln.tag))
		mix(uint64(ln.hpc))
		mix(uint64(ln.lru))
	}
	// The MSHR table's slot layout depends on insertion order; fold entries
	// with an order-independent sum of per-entry digests.
	var m uint64
	c.mshr.ForEach(func(l memtypes.LineAddr, e *MSHREntry) {
		eh := uint64(offset64)
		for _, v := range [...]uint64{uint64(l), uint64(e.Merged), uint64(e.Line)} {
			for i := 0; i < 8; i++ {
				eh ^= v & 0xff
				eh *= prime64
				v >>= 8
			}
		}
		if e.Allocated {
			eh *= prime64
		}
		m += eh
	})
	mix(m)
	return h
}
