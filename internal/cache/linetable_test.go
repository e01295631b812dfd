package cache

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// lineTableCap is the fuzzed table's capacity: 16 slots, so short key
// universes already make long, colliding probe chains.
const lineTableCap = 6

// lineTableKeys is the fuzzed key universe, in index order: address 0
// (held out of the slot array), two lines whose home is the second-to-last
// slot (indices 1-2), three whose home is the last slot (3-5), so their
// probe chains wrap past the table end, two whose home is slot 0 (6-7),
// where a wrapped chain collides with them, and three more lines (8-10).
func lineTableKeys() []memtypes.LineAddr {
	tab := NewLineTable[int](lineTableCap)
	last := len(tab.keys) - 1
	want := []struct{ home, n int }{{last - 1, 2}, {last, 3}, {0, 2}, {-1, 3}}
	keys := []memtypes.LineAddr{0}
	for _, w := range want {
		for l, n := memtypes.LineAddr(memtypes.LineSize), 0; n < w.n; l += memtypes.LineSize {
			h := tab.home(l)
			if h == w.home || (w.home < 0 && h != 0 && h < last-1) {
				keys = append(keys, l)
				n++
			}
		}
	}
	return keys
}

// FuzzLineTable drives a LineTable and a map model with the same tape of
// puts, gets and deletes in random order and requires them to agree after
// every step: length, every key's presence and value, and the ForEach
// contents. A put past the capacity must panic and change nothing.
func FuzzLineTable(f *testing.F) {
	// Tape: (op, key index) pairs; op 0 = put, 1 = get, 2 = delete.
	f.Add([]byte{0, 1, 0, 3, 0, 6, 2, 1, 1, 6, 1, 3})                   // hole before a wrapped chain
	f.Add([]byte{0, 3, 0, 4, 0, 5, 0, 6, 2, 3, 1, 4, 1, 5, 1, 6, 2, 5}) // delete the wrapped chain's head
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 0, 2, 2, 0, 8, 1, 8})
	f.Add([]byte{0, 8, 0, 9, 0, 10, 0, 7, 2, 9, 1, 10, 2, 7, 1, 8})
	keys := lineTableKeys()
	f.Fuzz(func(t *testing.T, tape []byte) {
		tab := NewLineTable[int](lineTableCap)
		model := map[memtypes.LineAddr]int{}
		for i := 0; i+1 < len(tape); i += 2 {
			l := keys[int(tape[i+1])%len(keys)]
			switch tape[i] % 3 {
			case 0:
				v := i + 1
				_, present := model[l]
				if !present && len(model) == lineTableCap {
					if !putPanics(&tab, l, v) {
						t.Fatalf("step %d: Put(%#x) past capacity %d did not panic", i, l, lineTableCap)
					}
					break
				}
				if p := tab.Put(l, v); *p != v {
					t.Fatalf("step %d: Put(%#x) returned pointer to %d, want %d", i, l, *p, v)
				}
				model[l] = v
			case 1:
				p := tab.Get(l)
				want, ok := model[l]
				if (p != nil) != ok || (ok && *p != want) {
					t.Fatalf("step %d: Get(%#x) = %v, model has (%d, %v)", i, l, p, want, ok)
				}
			case 2:
				v, ok := tab.Delete(l)
				want, wok := model[l]
				if ok != wok || v != want {
					t.Fatalf("step %d: Delete(%#x) = (%d, %v), model has (%d, %v)", i, l, v, ok, want, wok)
				}
				delete(model, l)
			}
			if tab.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model has %d", i, tab.Len(), len(model))
			}
			for _, k := range keys {
				p := tab.Get(k)
				want, ok := model[k]
				if (p != nil) != ok || (ok && *p != want) {
					t.Fatalf("step %d: key %#x lost: Get = %v, model has (%d, %v)", i, k, p, want, ok)
				}
			}
			seen := map[memtypes.LineAddr]bool{}
			tab.ForEach(func(k memtypes.LineAddr, v *int) {
				if want, ok := model[k]; !ok || *v != want || seen[k] {
					t.Fatalf("step %d: ForEach visited (%#x, %d); model has (%d, %v), seen before %v", i, k, *v, want, ok, seen[k])
				}
				seen[k] = true
			})
			if len(seen) != len(model) {
				t.Fatalf("step %d: ForEach visited %d entries, model has %d", i, len(seen), len(model))
			}
		}
	})
}

func putPanics(tab *LineTable[int], l memtypes.LineAddr, v int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	tab.Put(l, v)
	return false
}

// TestLineTableWrapsPastEnd pins the property the fuzz seeds rely on: the
// key universe really builds a probe chain that wraps from the last slot
// into slot 0, and deleting from the middle of that chain keeps the
// wrapped entries reachable.
func TestLineTableWrapsPastEnd(t *testing.T) {
	keys := lineTableKeys()
	tab := NewLineTable[int](lineTableCap)
	last := len(tab.keys) - 1
	var chain []memtypes.LineAddr
	for _, l := range keys[1:] {
		if tab.home(l) == last && len(chain) < 3 {
			chain = append(chain, l)
			tab.Put(l, len(chain))
		}
	}
	if tab.keys[last] != chain[0] || tab.keys[0] != chain[1] || tab.keys[1] != chain[2] {
		t.Fatalf("chain did not wrap: slots %#x ... %#x %#x", tab.keys[last], tab.keys[0], tab.keys[1])
	}
	if _, ok := tab.Delete(chain[0]); !ok {
		t.Fatal("Delete of the chain head failed")
	}
	for i, l := range chain[1:] {
		if p := tab.Get(l); p == nil || *p != i+2 {
			t.Fatalf("wrapped key %#x unreachable after deleting the chain head", l)
		}
	}
	if tab.keys[last] != chain[1] || tab.keys[0] != chain[2] || tab.keys[1] != 0 {
		t.Fatal("backward shift did not pull the wrapped chain back across the table end")
	}
}

// TestStateHashIgnoresMSHROrder reaches the same MSHR set in two caches
// through different insertion orders — and so, with colliding lines,
// different table layouts — and requires equal StateHash values.
func TestStateHashIgnoresMSHROrder(t *testing.T) {
	keys := lineTableKeys()[1:]
	a := New(64*1024, 1, lineTableCap, false) // direct-mapped: no way conflicts among the keys
	b := New(64*1024, 1, lineTableCap, false)
	for i := 0; i < lineTableCap; i++ {
		a.Load(keys[i], 0, false)
		b.Load(keys[lineTableCap-1-i], 0, false)
	}
	layout := func(c *Cache) []memtypes.LineAddr { return append([]memtypes.LineAddr(nil), c.mshr.keys...) }
	same := true
	for i, l := range layout(a) {
		same = same && layout(b)[i] == l
	}
	if same {
		t.Fatal("both insertion orders produced one table layout; the test would be vacuous")
	}
	if a.OutstandingFills() != lineTableCap || b.OutstandingFills() != lineTableCap {
		t.Fatalf("outstanding fills = %d, %d; want %d each", a.OutstandingFills(), b.OutstandingFills(), lineTableCap)
	}
	if a.StateHash() != b.StateHash() {
		t.Fatal("equal MSHR sets hash differently under different insertion orders")
	}
	a.Fill(keys[0])
	if a.StateHash() == b.StateHash() {
		t.Fatal("StateHash did not change when an MSHR entry retired")
	}
}

// TestMissFillAllocatesNothing requires a load miss, a merged access and
// the fill that retires the MSHR entry to allocate nothing.
func TestMissFillAllocatesNothing(t *testing.T) {
	c := New(48*1024, 8, 64, false)
	var i int
	roundTrip := func() {
		l := memtypes.LineAddr(1+i%64) * memtypes.LineSize
		i++
		if r, _, _ := c.Load(l, 0, true); r != Miss {
			t.Fatalf("load of %#x = %v, want miss", l, r)
		}
		if r, _, _ := c.Load(l, 0, true); r != HitPending {
			t.Fatalf("second load of %#x = %v, want hit-pending", l, r)
		}
		if e, ok := c.Fill(l); !ok || e.Merged != 1 {
			t.Fatalf("Fill(%#x) = (%+v, %v)", l, e, ok)
		}
		c.Invalidate(l)
	}
	for j := 0; j < 128; j++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 {
		t.Errorf("a miss and its fill allocate %v objects, want 0", allocs)
	}
}
