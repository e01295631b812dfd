package main

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/cliutil"
	"github.com/linebacker-sim/linebacker/internal/harness"
)

func TestExitCodeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nonsense"},
		{"-bench", "NOPE"},
		{"-mode", "cache", "-scheme", "nonsense"},
		{"-chaos", "panic:sm"},
		{"-badflag"},
	} {
		var stderr bytes.Buffer
		err := run(args, io.Discard, &stderr)
		if code := cliutil.Exit(&stderr, "lbsweep", err); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestChaosPanicFailsSweep(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-mode", "vtt", "-bench", "S2", "-windows", "2",
		"-chaos", "panic:sm:1000"}, io.Discard, &stderr)
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("chaos panic returned %T, want *harness.RunError: %v", err, err)
	}
	if !errors.Is(err, harness.ErrPanic) {
		t.Fatalf("error chain missing ErrPanic: %v", err)
	}
	if code := cliutil.Exit(&stderr, "lbsweep", err); code != 1 {
		t.Fatalf("chaos panic exit %d, want 1", code)
	}
	if out := stderr.String(); !strings.Contains(out, "machine state at abort") {
		t.Errorf("stderr missing machine-state snapshot:\n%s", out)
	}
}

func TestStoreResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-mode", "vtt", "-bench", "S2", "-windows", "1", "-store", dir}

	var out1, err1 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first sweep failed: %v", err)
	}
	if strings.Contains(err1.String(), "resuming") {
		t.Fatalf("fresh store claimed a resume:\n%s", err1.String())
	}

	// Second invocation: every point must come from the store, with the
	// resume notice on stderr and bit-identical sweep output.
	var out2, err2 bytes.Buffer
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if !strings.Contains(err2.String(), "resuming past 6 completed point(s)") {
		t.Fatalf("no resume notice for the 6 points on stderr:\n%s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("resumed sweep output diverged:\n--- first\n%s--- second\n%s", out1.String(), out2.String())
	}

	// A different run length over the same store is a different sweep: it
	// must simulate afresh, not resume past the 1-window points.
	args[5] = "2"
	var out3, err3 bytes.Buffer
	if err := run(args, &out3, &err3); err != nil {
		t.Fatalf("2-window sweep failed: %v", err)
	}
	if strings.Contains(err3.String(), "resuming") {
		t.Fatalf("2-window sweep resumed past 1-window points:\n%s", err3.String())
	}
	fresh, err := runCLI(t, "-mode", "vtt", "-bench", "S2", "-windows", "2")
	if err != nil {
		t.Fatal(err)
	}
	if out3.String() != fresh {
		t.Fatalf("2-window sweep over a 1-window store diverged from a storeless run:\n--- store\n%s--- fresh\n%s", out3.String(), fresh)
	}
}

// TestJournalFlagRemoved pins the -journal -> -store replacement: the old
// flag is a usage error, not a silently ignored option.
func TestJournalFlagRemoved(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-journal", filepath.Join(t.TempDir(), "x")}, io.Discard, &stderr)
	if code := cliutil.Exit(&stderr, "lbsweep", err); code != 2 {
		t.Fatalf("-journal exit %d, want 2 (usage)", code)
	}
}
