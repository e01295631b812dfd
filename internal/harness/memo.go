package harness

import (
	"context"
	"sync"
)

// Memo is an in-process single-flight memo: successful values by key,
// plus a table of in-flight computations, under its own mutex. The zero
// value is ready to use. The Runner keeps one for simulation results and
// one for probe results; twin.Cache keeps one for calibrated models.
type Memo[T any] struct {
	mu      sync.Mutex
	vals    map[string]T
	flights map[string]*flight[T]
}

// flight is one in-progress computation of a key. Callers that arrive
// while the leader runs wait on done instead of computing the key again.
type flight[T any] struct {
	done chan struct{} // closed by the leader after val/err are set
	val  T
	err  error
}

// Do returns the memoised value for key, or runs fn as the key's one
// leader, or waits for the running leader and shares its result. Only
// successes are memoised, and failures are never shared forward: a waiter
// whose leader failed tries again, as a potential leader, under its own
// context. A waiter whose ctx ends first returns context.Cause(ctx).
func (m *Memo[T]) Do(ctx context.Context, key string, fn func() (T, error)) (T, error) {
	var f *flight[T]
	for {
		m.mu.Lock()
		if v, ok := m.vals[key]; ok {
			m.mu.Unlock()
			return v, nil
		}
		inFlight := false
		if f, inFlight = m.flights[key]; !inFlight {
			if m.flights == nil {
				m.vals, m.flights = map[string]T{}, map[string]*flight[T]{}
			}
			f = &flight[T]{done: make(chan struct{})}
			m.flights[key] = f
			m.mu.Unlock()
			break // this caller is the leader
		}
		m.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				return f.val, nil
			}
		case <-ctx.Done():
			var zero T
			return zero, context.Cause(ctx)
		}
	}

	f.val, f.err = fn()
	// Publish atomically: memo insert and flight retirement happen under
	// the same critical section, so no racing caller can observe the gap
	// (missing value, no flight) and start a duplicate computation.
	m.mu.Lock()
	if f.err == nil {
		m.vals[key] = f.val
	}
	delete(m.flights, key)
	m.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// Len reports how many values are memoised (in-flight keys excluded).
func (m *Memo[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vals)
}
