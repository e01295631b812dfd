package harness

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
)

// These tests check the runner's durable result journal — an attached
// store directory — from the runner's side: what a sweep resumed in a new
// process re-simulates after a clean exit, a kill mid-append, or on-disk
// corruption.

// reopenStore opens a second handle over dir, as a restarted process would.
func reopenStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// journalSegment returns the path of the single segment file in dir.
func journalSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if !e.IsDir() {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly one segment file in %s, got %v", dir, segs)
	}
	return segs[0]
}

func TestJournalResumeSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, st := storeRunner(t, dir, 2)
	a, err := r.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Executions() != 1 || st.Len() != 1 {
		t.Fatalf("execs=%d journal=%d, want 1/1", r.Executions(), st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new runner, same journal directory. The completed
	// point must come from the journal; only the new point simulates.
	r2, st2 := storeRunner(t, dir, 2)
	a2, err := r2.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 0 {
		t.Fatalf("journaled point re-simulated (%d executions)", r2.Executions())
	}
	if a2.Cycles != a.Cycles || a2.Instructions != a.Instructions {
		t.Fatalf("journal replay diverged: %+v vs %+v", a2, a)
	}
	if _, err := r2.Run(ctx, "BI", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 1 {
		t.Fatalf("incomplete point did not simulate (%d executions)", r2.Executions())
	}
	if st2.Len() != 2 {
		t.Fatalf("journal has %d entries, want 2", st2.Len())
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, st := storeRunner(t, dir, 2)
	if _, err := r.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, "BI", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Cut the file mid-record, as a kill -9 during an append would.
	seg := journalSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r2, st2 := storeRunner(t, dir, 2)
	rep := st2.Report()
	if st2.Len() != 1 || rep.Loaded != 1 {
		t.Fatalf("journal loaded %d entries from truncated file, want 1 (report %+v)", st2.Len(), rep)
	}
	if rep.TruncatedBytes == 0 || rep.Skipped != 0 {
		t.Fatalf("torn tail reported as %+v, want truncated bytes and no skips", rep)
	}

	// The intact point replays; the torn one simulates again and commits.
	if _, err := r2.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(ctx, "BI", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 1 {
		t.Fatalf("resume after torn tail executed %d runs, want 1", r2.Executions())
	}
	st2.Close()

	// Appends after recovery must load cleanly: the dead tail is never
	// misread as a corrupt record, and both points replay.
	r3, st3 := storeRunner(t, dir, 2)
	if rep := st3.Report(); st3.Len() != 2 || rep.Skipped != 0 {
		t.Fatalf("post-recovery journal: %d entries, report %+v; want 2 and no skips", st3.Len(), rep)
	}
	for _, b := range []string{"S2", "BI"} {
		if _, err := r3.Run(ctx, b, sim.Baseline{}); err != nil {
			t.Fatal(err)
		}
	}
	if r3.Executions() != 0 {
		t.Fatalf("post-recovery resume re-simulated %d points", r3.Executions())
	}
}

func TestJournalSkipsCorruptInteriorRecords(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, st := storeRunner(t, dir, 2)
	if _, err := r.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Prepend two bad records: raw garbage, and an intact frame whose
	// record is of a future version.
	seg := journalSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	future := []byte(`{"v":99,"key":"future","result":null}`)
	frame := []byte{0xD5, 'L', 'B', '1'}
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(future)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(future))
	frame = append(frame, future...)
	garbage := append([]byte("not json at all\n"), frame...)
	if err := os.WriteFile(seg, append(garbage, data...), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, st2 := storeRunner(t, dir, 2)
	rep := st2.Report()
	if st2.Len() != 1 || rep.Loaded != 1 {
		t.Fatalf("journal loaded %d entries, want the 1 valid record (report %+v)", st2.Len(), rep)
	}
	if rep.Skipped != 2 {
		t.Fatalf("report %+v, want one skip per bad record", rep)
	}
	if _, err := r2.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 0 {
		t.Fatal("valid record behind corruption was re-simulated")
	}
}

func TestJournalRecordDeduplicates(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, st := storeRunner(t, dir, 2)
	res, err := r.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	seg := journalSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Recording the same point again — directly, through the same runner,
	// or through another runner over the same directory — appends nothing.
	keys := st.Keys()
	if len(keys) != 1 {
		t.Fatalf("journal keys = %v, want 1", keys)
	}
	if err := st.Put(keys[0], res); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	r2, st2 := storeRunner(t, dir, 2)
	if _, err := r2.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 || st2.Len() != 1 {
		t.Fatalf("duplicate key recorded twice (len=%d/%d)", st.Len(), st2.Len())
	}
	after, err := os.Stat(journalSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != info.Size() {
		t.Fatalf("duplicate record appended bytes: %d -> %d", info.Size(), after.Size())
	}
}

func TestJournalRecordIsDurableBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, _ := storeRunner(t, dir, 2)
	res, err := r.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}

	// Deliberately no Close: the moment Run returns, a second process
	// reading the directory — as after a kill -9 of the first — must find
	// the result committed.
	st2 := reopenStore(t, dir)
	if st2.Len() != 1 {
		t.Fatalf("returned result not on disk: journal has %d entries", st2.Len())
	}
	got, _ := st2.Get(st2.Keys()[0])
	if got.Cycles != res.Cycles || got.Instructions != res.Instructions {
		t.Fatalf("on-disk record %+v differs from returned result %+v", got, res)
	}
	r2 := tinyRunner()
	r2.Windows = 2
	r2.AttachStore(st2)
	if _, err := r2.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 0 {
		t.Fatalf("committed point re-simulated (%d executions)", r2.Executions())
	}
}
