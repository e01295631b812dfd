// Package policy exercises the gateannounce analyzer: SMPolicy-shaped
// types whose issue gates the SM caches until GatesChanged is called.
package policy

// SM stands in for sim.SM: the announcement target.
type SM struct{}

// GatesChanged stands in for sim.SM.GatesChanged.
func (*SM) GatesChanged() {}

// silent flips its gate in OnCycle and never tells the SM.
type silent struct {
	sm     *SM
	on     bool
	cycles int64
}

func (s *silent) CTAActive(int) bool { return s.on }

func (s *silent) OnCycle(cycle int64) {
	s.cycles++
	s.on = cycle%2 == 0 // want `silent.OnCycle writes field "on", which CTAActive reads, but never reaches GatesChanged`
}

// announced writes the same gate and announces it: clean.
type announced struct {
	sm *SM
	on bool
}

func (a *announced) CTAActive(int) bool { return a.on }

func (a *announced) OnCycle(cycle int64) {
	a.on = cycle%2 == 0
	a.sm.GatesChanged()
}

// helper announces inside the one method that writes the gate state, so
// every caller reaches GatesChanged through it: clean.
type helper struct {
	sm    *SM
	state []int
}

func (h *helper) WarpActive(w int) bool { return h.state[w] == 0 }

func (h *helper) set(w, st int) {
	h.state[w] = st
	h.sm.GatesChanged()
}

func (h *helper) OnCTALaunch(slot, seq int, cycle int64) { h.set(slot, 0) }

func (h *helper) OnCTAComplete(slot int, cycle int64) { h.set(slot, 1) }

// hidden writes the gate one call deep and announces nowhere: both the
// helper and its caller are reported.
type hidden struct {
	active []bool
}

func (h *hidden) WarpActive(w int) bool { return h.active[w] }

func (h *hidden) OnCycle(cycle int64) {
	h.rank() // want `hidden.OnCycle writes field "active" \(via rank\), which WarpActive reads`
}

func (h *hidden) rank() {
	for i := range h.active {
		h.active[i] = i%2 == 0 // want `hidden.rank writes field "active", which WarpActive reads`
	}
}

// transitiveRead's gate reads limit through a helper, so writing limit
// counts as a gate change; the plain counter does not.
type transitiveRead struct {
	sm       *SM
	limit    int
	resident int
	hits     int64
}

func (t *transitiveRead) CTAActive(slot int) bool { return t.allowed(slot) }

func (t *transitiveRead) allowed(slot int) bool { return slot < t.limit }

func (t *transitiveRead) OnLoadOutcome() { t.hits++ }

func (t *transitiveRead) Retune(limit int) {
	t.limit = limit // want `transitiveRead.Retune writes field "limit", which CTAActive reads`
}

// Attach sets the initial gates before the first pick: exempt.
func (t *transitiveRead) Attach(sm *SM) *transitiveRead {
	t.sm = sm
	t.limit = 2
	return t
}

// wholeReceiver overwrites every field at once.
type wholeReceiver struct {
	on bool
}

func (w *wholeReceiver) CTAActive(int) bool { return w.on }

func (w *wholeReceiver) Reset() { // want `wholeReceiver.Reset writes through the whole receiver`
	*w = wholeReceiver{}
}

// counting wraps another policy and counts gate queries, like a tracing
// wrapper: the counter is not gate state, and inner announces for itself.
type counting struct {
	inner interface{ CTAActive(int) bool }
	stats
}

type stats struct{ calls int64 }

func (c *counting) CTAActive(slot int) bool {
	c.calls++
	return c.inner.CTAActive(slot)
}

func (c *counting) OnCycle(int64) { c.calls++ }
