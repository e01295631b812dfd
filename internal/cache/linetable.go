package cache

import (
	"fmt"
	"math/bits"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// LineTable is a fixed-capacity, open-addressed hash table from line
// address to an inline value: the allocation-free replacement for a
// map[LineAddr]V on per-miss paths (the L1/L2 MSHR files, the SMs' fill
// waiter lists). It has linear probing with backward-shift deletion, so no
// tombstones build up and the table never needs a rehash. The slot array is
// sized once, to a power of two of at least twice the capacity, so a probe
// chain never runs past a half-full table. Address 0 is held outside the
// table because an empty slot is encoded as key 0, as in lineSet.
//
// Slot order depends on insertion history. ForEach visits slots in that
// order, so callers must fold what they visit order-independently or sort
// it. Two tables with equal contents can differ in layout.
type LineTable[V any] struct {
	keys  []memtypes.LineAddr
	vals  []V
	shift uint // 64 - log2(len(keys)); Fibonacci-hash high bits
	limit int  // capacity: most entries the table may hold
	n     int  // entries in keys, excluding address 0

	hasZero bool
	zero    V
}

// NewLineTable returns an empty table that holds up to capacity entries.
func NewLineTable[V any](capacity int) LineTable[V] {
	if capacity < 1 {
		capacity = 1
	}
	size := 8
	for size < 2*capacity {
		size *= 2
	}
	return LineTable[V]{
		keys:  make([]memtypes.LineAddr, size),
		vals:  make([]V, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		limit: capacity,
	}
}

func (t *LineTable[V]) home(l memtypes.LineAddr) int {
	return int((uint64(l) * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of entries.
func (t *LineTable[V]) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Get returns a pointer to l's value, or nil when l is absent. The pointer
// stays valid until the next Put or Delete.
func (t *LineTable[V]) Get(l memtypes.LineAddr) *V {
	if l == 0 {
		if t.hasZero {
			return &t.zero
		}
		return nil
	}
	mask := len(t.keys) - 1
	for i := t.home(l); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case l:
			return &t.vals[i]
		case 0:
			return nil
		}
	}
}

// Put sets l's value, inserting l if absent, and returns a pointer to the
// stored value (valid until the next Put or Delete). Inserting past the
// capacity panics: every caller bounds its entries by an MSHR count, so an
// overflow is an accounting bug, not a load to absorb.
func (t *LineTable[V]) Put(l memtypes.LineAddr, v V) *V {
	if p := t.Get(l); p != nil {
		*p = v
		return p
	}
	if t.Len() >= t.limit {
		panic(fmt.Sprintf("cache: LineTable over capacity %d", t.limit))
	}
	if l == 0 {
		t.hasZero, t.zero = true, v
		return &t.zero
	}
	mask := len(t.keys) - 1
	i := t.home(l)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = l, v
	t.n++
	return &t.vals[i]
}

// Delete removes l and returns its value; ok is false when l was absent.
// The hole is closed by backward shifting: each later entry of the probe
// chain whose home slot does not lie cyclically in (hole, entry] moves back
// into the hole, so every remaining entry stays reachable from its home.
func (t *LineTable[V]) Delete(l memtypes.LineAddr) (v V, ok bool) {
	var zero V
	if l == 0 {
		if !t.hasZero {
			return zero, false
		}
		v, t.hasZero, t.zero = t.zero, false, zero
		return v, true
	}
	mask := len(t.keys) - 1
	i := t.home(l)
	for t.keys[i] != l {
		if t.keys[i] == 0 {
			return zero, false
		}
		i = (i + 1) & mask
	}
	v = t.vals[i]
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home k lies
		// cyclically in (i, j]: then moving it before k would lose it.
		k := t.home(t.keys[j])
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, zero
	t.n--
	return v, true
}

// Reset removes every entry, keeping the capacity.
func (t *LineTable[V]) Reset() {
	var zero V
	clear(t.keys)
	clear(t.vals)
	t.n, t.hasZero, t.zero = 0, false, zero
}

// ForEach calls fn for every entry in slot order — an order that depends
// on insertion history (see LineTable). fn must not Put or Delete.
func (t *LineTable[V]) ForEach(fn func(l memtypes.LineAddr, v *V)) {
	if t.hasZero {
		fn(0, &t.zero)
	}
	for i, l := range t.keys {
		if l != 0 {
			fn(l, &t.vals[i])
		}
	}
}
