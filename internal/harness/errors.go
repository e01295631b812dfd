package harness

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors of the run engine. Callers classify failures with
// errors.Is against these; the concrete error is always a *RunError
// carrying the failed point's identity and a diagnostic snapshot.
var (
	// ErrUnknownBench marks a benchmark name not in the Table 2 registry.
	ErrUnknownBench = errors.New("harness: unknown benchmark")
	// ErrBadConfig marks a configuration or kernel rejected by validation.
	ErrBadConfig = errors.New("harness: bad configuration")
	// ErrPanic marks a run that panicked in any subsystem and was isolated
	// by the runner's recovery barrier.
	ErrPanic = errors.New("harness: run panicked")
	// ErrWatchdog marks a run aborted for lack of forward progress: no
	// instruction committed across a wall-clock watchdog tick.
	ErrWatchdog = errors.New("harness: watchdog: no forward progress")
	// ErrTimeout marks a run that exceeded the runner's per-run deadline.
	ErrTimeout = errors.New("harness: run deadline exceeded")
)

// Transient classifies a run failure for retry: true means the fault is
// environmental (a watchdog kill, a per-run deadline, an isolated panic —
// including injected chaos faults) and a retry might succeed; false means
// the failure is deterministic (bad configuration, unknown benchmark) or
// caller-owned (the client's context expired), where a retry would either
// fail identically or spend the caller's budget against its will.
//
// The deliberate asymmetry: retrying a deterministic failure can never
// succeed, but worse, a retry loop around one would mask the difference
// between "the environment hiccuped" and "this configuration is wrong" —
// the service must surface the second kind immediately and structurally
// (DESIGN.md §12).
func Transient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrBadConfig), errors.Is(err, ErrUnknownBench):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller's own context ended the run; its budget, its call.
		return false
	case errors.Is(err, ErrWatchdog), errors.Is(err, ErrTimeout), errors.Is(err, ErrPanic):
		return true
	}
	return false
}

// FailureKind names the sentinel class of a run failure for structured
// (JSON) error reporting; "other" covers unclassified causes.
func FailureKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBadConfig):
		return "badconfig"
	case errors.Is(err, ErrUnknownBench):
		return "unknownbench"
	case errors.Is(err, ErrWatchdog):
		return "watchdog"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrPanic):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "other"
}

// Run phases a RunError can fail in.
const (
	PhaseSetup   = "setup"   // benchmark lookup, config validation, machine build
	PhaseQueue   = "queue"   // waiting for a worker slot
	PhaseRun     = "run"     // cycle simulation
	PhaseCollect = "collect" // result aggregation
)

// RunError describes one failed simulation point. It survives sweeps: a
// failed (bench, policy, config) is reported with enough identity to re-run
// it alone and enough machine state to see where it stopped.
type RunError struct {
	// Bench, Policy and CfgKey identify the point exactly as the memo
	// cache keys it.
	Bench  string
	Policy string
	CfgKey string
	// Phase is the run stage that failed (PhaseSetup, PhaseRun, ...).
	Phase string
	// Cycle is the simulated cycle at abort (0 if the machine never ran).
	Cycle int64
	// Snapshot is the sim.GPU.StateDump diagnostic at abort, when the
	// machine existed.
	Snapshot string
	// Stack is the recovered goroutine stack for panic failures.
	Stack string
	// Err is the underlying cause, wrapping one of the sentinels above
	// and/or a context cancellation cause.
	Err error
}

// asRunError returns err as a failure of the point id: a *RunError passes
// through; anything else — a wait ended by the caller's context, a store
// lease or refresh failure — becomes a PhaseQueue failure of the point.
func asRunError(id RunError, err error) error {
	var re *RunError
	if errors.As(err, &re) {
		return err
	}
	id.Phase, id.Err = PhaseQueue, err
	return &id
}

// Error renders the point identity and cause; the snapshot and stack are
// deliberately excluded (use Detail for the full diagnostic).
func (e *RunError) Error() string {
	id := e.Bench
	if e.Policy != "" {
		id += "/" + e.Policy
	}
	if e.CfgKey != "" {
		id += "[" + e.CfgKey + "]"
	}
	if e.Cycle > 0 {
		return fmt.Sprintf("harness: %s: %s failed at cycle %d: %v", id, e.Phase, e.Cycle, e.Err)
	}
	return fmt.Sprintf("harness: %s: %s failed: %v", id, e.Phase, e.Err)
}

// Unwrap exposes the cause chain for errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Detail renders the error plus its diagnostic snapshot and, for panics,
// the recovered stack — the form CLIs print to stderr.
func (e *RunError) Detail() string {
	s := e.Error()
	if e.Snapshot != "" {
		s += "\nmachine state at abort:\n" + indent(e.Snapshot)
	}
	if e.Stack != "" {
		s += "\nrecovered stack:\n" + indent(e.Stack)
	}
	return s
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
