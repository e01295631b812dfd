package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/linebacker-sim/linebacker"
	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/serve"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
	"github.com/linebacker-sim/linebacker/internal/twin"
)

// Pass shape of serve-mixed: every client runs serveRounds closed-loop
// rounds, each one sweep followed by serveEstimates estimate queries.
const (
	serveRounds    = 12 // even, and a multiple of 2x3: equal new/hit halves, whole window cycles
	serveEstimates = 8

	// A rotation is the passes in which each client's new points cover
	// every benchmark at every run length once: 20x3 points at
	// serveRounds/2 per pass. It takes about rotationSeconds on an idle
	// 2-core Xeon host, and up to twice that when other guests load it.
	rotationPasses  = 20 * 3 / (serveRounds / 2)
	rotationSeconds = 4

	// There are 20x3x10 never-seen points and the two clients draw 120 a
	// rotation, so five rotations would need every one. A hit sweep with no
	// fresh combination left falls back to a new one, so at five rotations
	// some seeds run out of never-seen points; at four none does.
	maxRotations = 4

	// Every percentile needs this many samples beyond it.
	minBeyond = 10

	maxTracePoints      = 40 // never-seen points of the first pass re-run by the traced passes
	serveWindowsDefault = 3  // the server's default run length, which estimates use
)

// pointKey names one served point.
type pointKey struct {
	bench, scheme string
	windows       int
}

// serveMixed is an in-process lbserve over a store in a fresh directory,
// with the twin tier on, driven over loopback HTTP by closed-loop clients.
type serveMixed struct {
	env       *env
	rounds    int
	estimates int
	passes    int

	dir     string
	st      *store.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
	plan    *planner
	closed  bool

	// firstPass marks pass 0, whose never-seen points (a pure function of
	// the seed) are the ones the traced passes re-run.
	firstPass bool
	// warmRatios are the Linebacker/baseline IPC ratios of the warm-up
	// sweep, reported as pass 0's.
	warmRatios []float64

	mu          sync.Mutex
	answers     map[pointKey]*sim.Result // first answer per point
	newSweepS   []float64
	hitSweepMs  []float64
	firstPointS []float64
	estimateMs  []float64
	estQueries  []serve.EstimateRequest
	estAnswers  []serve.EstimateResponse
	traced      []tracedPoint
	points      int64
	execs       int64
}

func (w *serveMixed) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.env.workDir, "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.answers = map[pointKey]*sim.Result{}
	if w.st, err = store.Open(filepath.Join(dir, "store"), store.Options{}); err != nil {
		return err
	}
	w.srv = serve.New(w.st, serve.Options{Twin: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	for i := 0; i < w.env.procs; i++ {
		w.clients = append(w.clients, &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}

	// Calibrate the twin for every benchmark the estimates ask about, one
	// benchmark per client connection at a time.
	err = forEach(len(w.clients), len(estimateBenches), func(i int) error {
		c := w.clients[i%len(w.clients)]
		_, ans, err := w.estimate(ctx, c, serve.EstimateRequest{Bench: estimateBenches[i]})
		if err == nil && !ans.InEnvelope {
			err = fmt.Errorf("calibrating %s: base query out of envelope: %s", estimateBenches[i], ans.Reason)
		}
		return err
	})
	if err != nil {
		return err
	}
	// Warm-up: commit the shared hit material and the Linebacker pairs.
	w.plan = newPlanner(w.env.seed, len(w.clients), w.estimates)
	out, err := w.sweep(ctx, w.clients[0], w.plan.warm, nil)
	if err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	w.warmRatios = out.lbRatios
	return nil
}

// sweepOutcome is what the pass accounting needs from one sweep.
type sweepOutcome struct {
	points    int
	newCycles int64
	lbRatios  []float64
}

// sweep submits one sweep, follows its SSE stream to the done event, then
// fetches and checks the full results. ps, when non-nil, receives the
// latency samples.
func (w *serveMixed) sweep(ctx context.Context, c *http.Client, sw sweepSpec, ps *passStats) (sweepOutcome, error) {
	var out sweepOutcome
	body, err := json.Marshal(sw.request())
	if err != nil {
		return out, err
	}
	start := time.Now()
	var st serve.JobStatus
	code, err := doJSON(ctx, c, http.MethodPost, w.base+"/v1/sweeps", body, &st)
	if err != nil {
		return out, err
	}
	if code != http.StatusAccepted {
		w.env.tally.fail("sweep %s: submit answered %d, want 202", sw.ticket(), code)
		return out, nil
	}
	first, done, err := w.follow(ctx, c, st.ID)
	if err != nil {
		return out, err
	}
	end := time.Now()

	var res serve.JobStatus
	if code, err = doJSON(ctx, c, http.MethodGet, w.base+"/v1/sweeps/"+st.ID+"/result", nil, &res); err != nil {
		return out, err
	}
	if code != http.StatusOK || done.State != serve.StateDone || res.State != serve.StateDone {
		w.env.tally.fail("sweep %s: result %d, state %q", sw.ticket(), code, done.State)
		return out, nil
	}
	out, ok := w.checkSweep(sw, res.Points)
	if !ok {
		return out, nil
	}
	w.env.tally.ok()
	if ps != nil {
		w.mu.Lock()
		if sw.New {
			w.newSweepS = append(w.newSweepS, end.Sub(start).Seconds())
			w.firstPointS = append(w.firstPointS, first.Sub(start).Seconds())
		} else {
			w.hitSweepMs = append(w.hitSweepMs, float64(end.Sub(start).Nanoseconds())/1e6)
		}
		w.mu.Unlock()
	}
	return out, nil
}

// follow reads the sweep's SSE stream until the done event and returns
// the arrival times of the first point event and the done summary.
func (w *serveMixed) follow(ctx context.Context, c *http.Client, id string) (time.Time, serve.JobStatus, error) {
	var first time.Time
	var done serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/sweeps/"+id+"/stream", nil)
	if err != nil {
		return first, done, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return first, done, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "point":
			if first.IsZero() {
				first = time.Now()
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done); err != nil {
				return first, done, err
			}
			_, err := io.Copy(io.Discard, resp.Body)
			return first, done, err
		}
	}
	if err := sc.Err(); err != nil {
		return first, done, err
	}
	return first, done, errors.New("sweep stream ended without a done event")
}

// checkSweep verifies every point of a finished sweep: simulated, its IPC
// consistent with its result, equal to the golden grid where the point is
// a golden key, and, for points answered before, equal to the first
// answer. New points are recorded.
func (w *serveMixed) checkSweep(sw sweepSpec, pts []serve.Point) (sweepOutcome, bool) {
	var out sweepOutcome
	t := w.env.tally
	if len(pts) != len(sw.Benches)*len(sw.Schemes) {
		t.fail("sweep %s: %d points, want %d", sw.ticket(), len(pts), len(sw.Benches)*len(sw.Schemes))
		return out, false
	}
	ipc := map[pointKey]float64{}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range pts {
		k := pointKey{p.Bench, p.Scheme, sw.Windows}
		if p.State != serve.PointOK || p.Result == nil || p.Source != serve.SourceSim || p.IPC != p.Result.IPC() {
			t.fail("sweep %s: point %v state %q source %q", sw.ticket(), k, p.State, p.Source)
			return out, false
		}
		if gk, ok := goldenKey(k); ok && sw.Windows == w.env.golden.Windows {
			if want, in := w.env.golden.Entries[gk]; in && check.MetricsOf(p.Result) != want {
				t.fail("sweep %s: point %v differs from golden %s", sw.ticket(), k, gk)
				return out, false
			}
		}
		if prev, seen := w.answers[k]; seen {
			if !reflect.DeepEqual(prev, p.Result) {
				t.fail("sweep %s: point %v answered differently than before", sw.ticket(), k)
				return out, false
			}
		} else {
			if !sw.New {
				t.fail("sweep %s: hit sweep names unseen point %v", sw.ticket(), k)
				return out, false
			}
			w.answers[k] = p.Result
			out.newCycles += p.Result.Cycles
			if w.firstPass && len(w.traced) < maxTracePoints {
				w.addTracePoint(k, p.Result)
			}
		}
		ipc[k] = p.IPC
	}
	for _, b := range sw.Benches {
		base, lb := ipc[pointKey{b, "baseline", sw.Windows}], ipc[pointKey{b, "linebacker", sw.Windows}]
		if base > 0 && lb > 0 {
			out.lbRatios = append(out.lbRatios, lb/base)
		}
	}
	out.points = len(pts)
	return out, true
}

// goldenKey maps a served point onto the golden grid's key form.
func goldenKey(k pointKey) (string, bool) {
	switch k.scheme {
	case "baseline":
		return k.bench + "|baseline", true
	case "linebacker":
		return k.bench + "|lb", true
	}
	return "", false
}

// tracedPoint is a served point the traced passes re-run, with the
// server's answer for it.
type tracedPoint struct {
	p    simPoint
	want *sim.Result
}

// addTracePoint records a served point for the traced passes: the same
// machine, run length and policy, driven directly through sim.New.
func (w *serveMixed) addTracePoint(k pointKey, res *sim.Result) {
	cfg := harness.BenchConfig()
	scheme := k.scheme
	w.traced = append(w.traced, tracedPoint{want: res, p: simPoint{
		key:    fmt.Sprintf("%s|%s@w%d", k.bench, k.scheme, k.windows),
		bench:  k.bench,
		cfg:    cfg,
		cycles: int64(k.windows) * int64(cfg.LB.WindowCycles),
		policy: func() sim.Policy {
			pol, err := linebacker.NewScheme(scheme)
			if err != nil {
				panic(err) // the server accepted the same spec
			}
			return pol
		},
	}})
}

// estimate posts one estimate query and returns its round-trip time.
func (w *serveMixed) estimate(ctx context.Context, c *http.Client, q serve.EstimateRequest) (time.Duration, serve.EstimateResponse, error) {
	var ans serve.EstimateResponse
	body, err := json.Marshal(q)
	if err != nil {
		return 0, ans, err
	}
	start := time.Now()
	code, err := doJSON(ctx, c, http.MethodPost, w.base+"/v1/estimate", body, &ans)
	d := time.Since(start)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("estimate %+v answered %d", q, code)
	}
	return d, ans, err
}

// servePasses is serve-mixed's pass count for a time budget: whole
// rotations, about as many as fit the budget on the reference host, at
// least two, so that even one client gives every percentile its samples,
// and at most maxRotations. It depends on the budget alone, never on speed.
func servePasses(budget time.Duration) int {
	return rotationPasses * min(maxRotations, max(2, int(math.Round(budget.Seconds()/rotationSeconds))))
}

func (w *serveMixed) fixedPasses() int { return w.passes }

func (w *serveMixed) pass(ctx context.Context, i int, ps *passStats) error {
	plan, err := w.plan.pass(w.rounds)
	if err != nil {
		return err
	}
	w.firstPass = i == 0
	if i == 0 {
		ps.lbRatios = w.warmRatios
	}
	execs := w.srv.Executions()
	var mu sync.Mutex
	err = forEach(len(w.clients), len(w.clients), func(c int) error {
		for _, r := range plan[c] {
			out, err := w.sweep(ctx, w.clients[c], r.Sweep, ps)
			if err != nil {
				return err
			}
			for _, q := range r.Estimates {
				d, ans, err := w.estimate(ctx, w.clients[c], q)
				if err != nil {
					return err
				}
				w.checkEstimate(q, ans, d)
			}
			mu.Lock()
			ps.points += int64(out.points)
			ps.simCycles += out.newCycles
			mu.Unlock()
		}
		return nil
	})
	w.mu.Lock()
	w.points += ps.points
	w.execs += w.srv.Executions() - execs
	w.mu.Unlock()
	return err
}

// checkEstimate verifies an estimate answer is a twin answer inside its
// own confidence band and records its latency.
func (w *serveMixed) checkEstimate(q serve.EstimateRequest, ans serve.EstimateResponse, d time.Duration) {
	if ans.Source != serve.SourceTwin || !ans.InEnvelope || ans.IPC <= 0 || ans.Lo > ans.IPC || ans.IPC > ans.Hi {
		w.env.tally.fail("estimate %+v: %+v", q, ans)
		return
	}
	w.env.tally.ok()
	w.mu.Lock()
	w.estimateMs = append(w.estimateMs, float64(d.Nanoseconds())/1e6)
	w.estQueries = append(w.estQueries, q)
	w.estAnswers = append(w.estAnswers, ans)
	w.mu.Unlock()
}

func (w *serveMixed) perLayer(ctx context.Context, rep *report) error {
	pct := func(name string, xs []float64, q float64) {
		if beyond := float64(len(xs)) * (1 - q); beyond < minBeyond {
			w.env.tally.fail("%s: %d samples, %.1f beyond the percentile (want %d)", name, len(xs), beyond, minBeyond)
		}
		rep.setPct(name, quantile(xs, q), len(xs))
	}
	pct("serve.sweep_new_s_p50", w.newSweepS, 0.5)
	pct("serve.sweep_new_s_p90", w.newSweepS, 0.9)
	pct("serve.sweep_hit_ms_p50", w.hitSweepMs, 0.5)
	pct("serve.sweep_hit_ms_p90", w.hitSweepMs, 0.9)
	pct("serve.estimate_ms_p50", w.estimateMs, 0.5)
	pct("serve.estimate_ms_p99", w.estimateMs, 0.99)
	pct("serve.first_point_s_p50", w.firstPointS, 0.5)
	rep.set("harness.exec_per_point", share(float64(w.execs), float64(w.points)))

	if err := w.twinProbe(ctx, rep); err != nil {
		return err
	}
	// Clients interleave, so put the traced points in key order.
	sort.Slice(w.traced, func(a, b int) bool { return w.traced[a].p.key < w.traced[b].p.key })
	pts := make([]simPoint, len(w.traced))
	want := make([]*sim.Result, len(w.traced))
	for i, t := range w.traced {
		pts[i], want[i] = t.p, t.want
	}
	if err := traceSim(ctx, w.env, pts, want, rep); err != nil {
		return err
	}
	resultCounts(want, rep)
	if err := w.shutdown(); err != nil {
		return err
	}
	return storeProbe(w.env, filepath.Join(w.dir, "store"), rep)
}

// twinProbe times twin.Calibrate for every estimate benchmark on a fresh
// runner, then direct Model.Estimate on the queries the clients sent; the
// direct answers must equal the HTTP ones.
func (w *serveMixed) twinProbe(ctx context.Context, rep *report) error {
	models := map[string]*twin.Model{}
	var cal []float64
	for _, b := range estimateBenches {
		r := harness.NewRunner(harness.BenchConfig(), serveWindowsDefault)
		start := time.Now()
		m, err := twin.Calibrate(ctx, r, b, twin.Options{})
		if err != nil {
			return err
		}
		cal = append(cal, time.Since(start).Seconds())
		models[b] = m
	}
	direct := make([]float64, 0, len(w.estQueries))
	for i, q := range w.estQueries {
		m := models[q.Bench]
		tq := twin.Query{L1Bytes: q.L1KB * 1024, LB: q.LB}
		start := time.Now()
		est := m.Estimate(tq)
		direct = append(direct, float64(time.Since(start).Nanoseconds())/1e3)
		if a := w.estAnswers[i]; est.IPC != a.IPC || est.Lo != a.Lo || est.Hi != a.Hi {
			w.env.tally.fail("estimate %+v: direct model answers %v, server answered %v", q, est.IPC, a.IPC)
		}
	}
	rep.setPct("twin.calibrate_s", median(cal), len(cal))
	rep.setPct("twin.estimate_us_p50", median(direct), len(direct))
	rep.set("serve.estimate_overhead_us", 1e3*median(w.estimateMs)-median(direct))
	return nil
}

// shutdown drains the server, stops the HTTP listener, waits for it and
// closes the store. Safe to call more than once.
func (w *serveMixed) shutdown() error {
	if w.closed || w.srv == nil {
		w.closed = true
		return nil
	}
	w.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Drain(ctx)
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if cerr := w.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *serveMixed) close() {
	if err := w.shutdown(); err != nil {
		fmt.Fprintln(w.env.stderr, "perfbench: serve shutdown:", err)
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// doJSON sends body (if any) and decodes a JSON answer into out.
func doJSON(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// forEach applies fn to every index in [0, n) on at most procs goroutines
// and returns the first error. It returns once every goroutine has ended.
func forEach(procs, n int, fn func(i int) error) error {
	if procs > n {
		procs = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
