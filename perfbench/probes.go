package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
)

// Minimum sample counts for the store probe's percentiles: at least ten
// samples beyond each reported percentile.
const (
	minGetSamples = 20  // p50
	minPutSamples = 100 // p90
)

// commitResults writes results into a fresh store directory, one fsynced
// commit each, and closes it.
func commitResults(dir string, keys []string, res []*sim.Result) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for i, k := range keys {
		if err := st.Put(k, res[i]); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// storeProbe replays a store directory from the outside: it times
// store.Open (which includes the recovery scan), Gets every key, Puts each
// result into a fresh store with an fsync per commit, then Compacts the
// fresh store. Every call is timed individually. Results read back must
// equal what was committed.
func storeProbe(e *env, dir string, rep *report) error {
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("store probe: reopening %s: %w", dir, err)
	}
	openS := time.Since(start).Seconds()
	keys := st.Keys()
	if len(keys) == 0 {
		st.Close()
		return fmt.Errorf("store probe: %s holds no entries", dir)
	}
	res := make([]*sim.Result, len(keys))
	var gets []float64
	for len(gets) < minGetSamples {
		for i, k := range keys {
			t := time.Now()
			r, ok := st.Get(k)
			gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
			if !ok {
				st.Close()
				return fmt.Errorf("store probe: key %q listed but not readable", k)
			}
			res[i] = r
		}
	}
	if err := st.Close(); err != nil {
		return err
	}

	freshDir := dir + "-fresh"
	if err := os.RemoveAll(freshDir); err != nil {
		return err
	}
	fresh, err := store.Open(freshDir, store.Options{})
	if err != nil {
		return err
	}
	defer fresh.Close()
	var puts []float64
	for round := 0; len(puts) < minPutSamples; round++ {
		for i, k := range keys {
			key := fmt.Sprintf("%s#%d", k, round)
			t := time.Now()
			if err := fresh.Put(key, res[i]); err != nil {
				return fmt.Errorf("store probe: put: %w", err)
			}
			puts = append(puts, float64(time.Since(t).Nanoseconds())/1e6)
			if back, ok := fresh.Get(key); !ok || !reflect.DeepEqual(back, res[i]) {
				e.tally.fail("store probe: %s does not read back as committed", key)
			} else {
				e.tally.ok()
			}
		}
	}
	t := time.Now()
	if err := fresh.Compact(); err != nil {
		return fmt.Errorf("store probe: compact: %w", err)
	}
	compactMs := float64(time.Since(t).Nanoseconds()) / 1e6
	size, err := dirBytes(freshDir)
	if err != nil {
		return err
	}

	rep.set("store.open_s", openS)
	rep.setPct("store.get_us_p50", median(gets), len(gets))
	rep.setPct("store.put_ms_p50", median(puts), len(puts))
	rep.setPct("store.put_ms_p90", quantile(puts, 0.9), len(puts))
	rep.set("store.compact_ms", compactMs)
	rep.set("store.bytes_per_entry", share(float64(size), float64(fresh.Len())))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
