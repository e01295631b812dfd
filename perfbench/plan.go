package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"github.com/linebacker-sim/linebacker/internal/serve"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// The serve-mixed request generator. It is a pure function of the seed:
// every client's whole request sequence is decided up front, so the
// classification of a sweep as "new" (contains a never-seen point) or
// "hit" (every point already committed) never depends on timing. No two
// clients ever name the same never-seen point, and a hit sweep only names
// points its own client has already seen complete (or that the set-up
// warm-up committed).

// Machine and run-length axes of the generated sweeps: the fast 4-SM
// machine at 1-3 monitoring windows.
var serveWindows = []int{1, 2, 3}

// newSchemes are the schemes of the never-seen points new sweeps add, one
// point per sweep. None is a warm-up scheme, and there are ten so that
// every one runs at every run length equally often (see planner).
var newSchemes = []string{
	"cerf", "ccws", "cacheext", "svc", "vc",
	"swl:2", "swl:4", "swl:8", "pcal+cerf", "lb+cacheext",
}

// The set-up warm-up sweep commits warmCount seeded benchmarks under
// warmSchemes at the golden run length, before any pass. Its
// baseline/Linebacker pairs are golden-grid points and give serve-mixed's
// lb_speedup_gm; all its points are hit material for every client.
var warmSchemes = []string{"baseline", "linebacker", "pcal"}

const (
	warmCount   = 8
	warmWindows = 3
)

// estimateBenches are calibrated by the twin tier during set-up; every
// estimate query asks about one of them.
var estimateBenches = []string{"KM", "S2"}

// Twin cache-axis anchors (twin defaults): queries between them are in
// the envelope by construction.
const (
	estMinKB = 16
	estMaxKB = 192
)

// sweepSpec is one sweep submission.
type sweepSpec struct {
	Benches []string
	Schemes []string
	Windows int
	New     bool // holds at least one never-seen point
}

func (s sweepSpec) request() serve.SweepRequest {
	return serve.SweepRequest{Benches: s.Benches, Schemes: s.Schemes, Windows: s.Windows}
}

// ticket is the sweep's canonical identity (what the server deduplicates
// whole requests by).
func (s sweepSpec) ticket() string {
	b := append([]string(nil), s.Benches...)
	sc := append([]string(nil), s.Schemes...)
	sort.Strings(b)
	sort.Strings(sc)
	return fmt.Sprintf("%d|%s|%s", s.Windows, strings.Join(b, ","), strings.Join(sc, ","))
}

// round is one closed-loop step of a client: a sweep, then estimates.
type round struct {
	Sweep     sweepSpec
	Estimates []serve.EstimateRequest
}

// planner generates the clients' rounds pass by pass. Rounds alternate
// strictly between a new and a hit sweep. A client's k-th new point runs
// benchmark k mod 20 of the seeded order at serveWindows[k mod 3] windows
// (20 and 3 are coprime, so every 60 new points, a rotation, cover each
// pair once) under scheme (k/3 + k/60 + 5c) mod 10 of the seeded order for
// client c. So each rotation runs every benchmark and every scheme at
// every run length, later rotations and the other client give each pair
// another scheme, and the seed changes which benchmark meets which scheme,
// not the mix.
type planner struct {
	rng       *rand.Rand
	estimates int
	benches   []string                      // seeded benchmark order
	schemes   []string                      // seeded scheme order
	drawn     []int                         // per client: new points drawn so far
	named     map[string]bool               // points some sweep (or the warm-up) names
	known     []map[int]map[string][]string // per client: windows -> bench -> schemes
	tickets   map[string]bool
	warm      sweepSpec // the set-up warm-up sweep
}

func newPlanner(seed uint64, clients, estimates int) *planner {
	p := &planner{
		rng:       rand.New(rand.NewPCG(seed, 0x5e7e)),
		estimates: estimates,
		drawn:     make([]int, clients),
		named:     map[string]bool{},
		known:     make([]map[int]map[string][]string, clients),
		tickets:   map[string]bool{},
	}
	names := workload.Names()
	p.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	p.warm = sweepSpec{Benches: names[:warmCount], Schemes: warmSchemes, Windows: warmWindows, New: true}
	for _, b := range p.warm.Benches {
		for _, s := range warmSchemes {
			p.named[pointName(b, s, warmWindows)] = true
		}
	}
	p.benches = workload.Names()
	p.rng.Shuffle(len(p.benches), func(i, j int) { p.benches[i], p.benches[j] = p.benches[j], p.benches[i] })
	p.schemes = append([]string(nil), newSchemes...)
	p.rng.Shuffle(len(p.schemes), func(i, j int) { p.schemes[i], p.schemes[j] = p.schemes[j], p.schemes[i] })
	for c := range p.known {
		p.known[c] = map[int]map[string][]string{}
		for _, b := range p.warm.Benches {
			p.learn(c, b, warmWindows, warmSchemes)
		}
	}
	p.tickets[p.warm.ticket()] = true
	return p
}

// pointName is a point's identity across sweeps.
func pointName(bench, scheme string, windows int) string {
	return fmt.Sprintf("%s|%s|%d", bench, scheme, windows)
}

func (p *planner) learn(c int, bench string, windows int, schemes []string) {
	m := p.known[c][windows]
	if m == nil {
		m = map[string][]string{}
		p.known[c][windows] = m
	}
	have := map[string]bool{}
	for _, s := range m[bench] {
		have[s] = true
	}
	for _, s := range schemes {
		if !have[s] {
			have[s] = true
			m[bench] = append(m[bench], s)
		}
	}
	sort.Strings(m[bench])
}

// pass returns rounds per client for the next pass.
func (p *planner) pass(rounds int) ([][]round, error) {
	out := make([][]round, len(p.known))
	for c := range out {
		for i := 0; i < rounds; i++ {
			sw, ok := sweepSpec{}, false
			if i%2 == 1 {
				sw, ok = p.hitSweep(c)
			}
			if !ok {
				var err error
				if sw, err = p.newSweep(c); err != nil {
					return nil, err
				}
			}
			out[c] = append(out[c], round{Sweep: sw, Estimates: p.estimateQueries()})
		}
	}
	return out, nil
}

// newSweep draws the client's next never-seen point. Should the planned
// scheme be taken (after five rotations, by the other client), the next
// free one in the order stands in.
func (p *planner) newSweep(c int) (sweepSpec, error) {
	k := p.drawn[c]
	p.drawn[c]++
	b := p.benches[k%len(p.benches)]
	w := serveWindows[k%len(serveWindows)]
	n := len(p.schemes)
	first := k/len(serveWindows) + k/(len(p.benches)*len(serveWindows)) + c*n/2
	for i := range n {
		scheme := p.schemes[(first+i)%n]
		if p.named[pointName(b, scheme, w)] {
			continue
		}
		p.named[pointName(b, scheme, w)] = true
		sw := sweepSpec{Benches: []string{b}, Schemes: []string{scheme}, Windows: w, New: true}
		p.tickets[sw.ticket()] = true
		p.learn(c, b, w, sw.Schemes)
		return sw, nil
	}
	return sweepSpec{}, fmt.Errorf("serve-mixed: no never-seen point left for %s at %d windows", b, w)
}

// hitSweep picks a fresh combination of two points the client has seen
// committed at one run length: two schemes of one benchmark, or one scheme
// of two benchmarks. Every hit sweep answers two points, so every pass
// answers the same number.
func (p *planner) hitSweep(c int) (sweepSpec, bool) {
	type group struct {
		windows          int
		benches, schemes []string // one of the two has length 1
	}
	var groups []group
	for _, w := range serveWindows {
		byBench := p.known[c][w]
		benches := make([]string, 0, len(byBench))
		for b := range byBench {
			benches = append(benches, b)
		}
		sort.Strings(benches)
		byScheme := map[string][]string{}
		var schemes []string
		for _, b := range benches {
			if len(byBench[b]) >= 2 {
				groups = append(groups, group{w, []string{b}, byBench[b]})
			}
			for _, s := range byBench[b] {
				if byScheme[s] == nil {
					schemes = append(schemes, s)
				}
				byScheme[s] = append(byScheme[s], b)
			}
		}
		sort.Strings(schemes)
		for _, s := range schemes {
			if len(byScheme[s]) >= 2 {
				groups = append(groups, group{w, byScheme[s], []string{s}})
			}
		}
	}
	pick := func(xs []string) []string {
		if len(xs) == 1 {
			return xs
		}
		i, j := p.rng.IntN(len(xs)), p.rng.IntN(len(xs)-1)
		if j >= i {
			j++
		}
		return []string{xs[i], xs[j]}
	}
	for try := 0; try < 16 && len(groups) > 0; try++ {
		g := groups[p.rng.IntN(len(groups))]
		sw := sweepSpec{Benches: pick(g.benches), Schemes: pick(g.schemes), Windows: g.windows}
		if t := sw.ticket(); !p.tickets[t] {
			p.tickets[t] = true
			return sw, true
		}
	}
	return sweepSpec{}, false
}

// estimateQueries draws one round's in-envelope estimate queries: a
// calibrated benchmark, either policy arm, an L1 size between the twin's
// cache-axis anchors.
func (p *planner) estimateQueries() []serve.EstimateRequest {
	out := make([]serve.EstimateRequest, p.estimates)
	for i := range out {
		out[i] = serve.EstimateRequest{
			Bench: estimateBenches[p.rng.IntN(len(estimateBenches))],
			LB:    p.rng.IntN(2) == 1,
			L1KB:  estMinKB + p.rng.IntN(estMaxKB-estMinKB+1),
		}
	}
	return out
}
