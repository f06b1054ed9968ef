package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"

	"repro/internal/service"
)

// designPool holds the m̂ values design queries draw their factors from:
// powers of the primes behind Figure 7's points, so products of degrees
// collide as they do in the paper's designs and every query stays at
// fig5–7 scale.
var designPool = []int{
	2, 4, 8, 16, 32, 64, 128, 256,
	3, 9, 27, 81, 243,
	5, 25, 125, 625,
	7, 49, 343, 2401,
	11, 121, 1331, 14641,
}

// designStratum is one slot of a session: a loop mode and a range of
// factor counts. Every session has one query per stratum, so each holds a
// similar mix of cheap and costly closed forms.
type designStratum struct {
	loop   string
	lo, hi int // factor count range, inclusive
}

var (
	designStrata = []designStratum{
		{"none", 8, 11}, {"none", 12, 15},
		{"hub", 8, 11}, {"hub", 12, 15},
		{"leaf", 8, 10}, {"leaf", 11, 13},
	}
	designSmokeStrata = []designStratum{{"none", 3, 4}, {"hub", 3, 4}, {"leaf", 3, 4}}
)

const (
	// designRepeats is how many queries of a session repeat an earlier
	// design in a permuted factor order, so the service's cache answers.
	designRepeats = 2
	// designSessions is the length of the seeded session cycle a run
	// replays: more sessions than a run completes, so the tail is set by
	// many distinct sessions rather than a few repeated ones. Were a run to
	// wrap, a fresh design would long since be evicted from the service's
	// design cache.
	designSessions      = 1024
	designSmokeSessions = 4
	// designRepeatWindow bounds how far back a repeat reaches, in fresh
	// designs, so the repeated design is still cached.
	designRepeatWindow = 24
)

// designQuery is one POST /v1/designs and the properties kron computes for
// it before timing starts.
type designQuery struct {
	Req    service.DesignRequest `json:"design"`
	Repeat bool                  `json:"repeat,omitempty"`
	want   designWant
}

type designWant struct{ vertices, edges, triangles string }

// designBench is the design workload's run: every op is one session of
// design queries, each checked against kron's closed forms.
type designBench struct {
	// warmUp is the paper's own designs, so set-up does the same work
	// whatever the seed.
	warmUp   []designQuery
	sessions [][]designQuery
	srv      *server
}

// designWarmUp holds the designs of Figures 5, 6 and 7.
var designWarmUp = []service.DesignRequest{
	{Points: []int{3, 4, 5, 9, 16, 25, 81, 256, 625}, Loop: "none"},
	{Points: []int{3, 4, 5, 9, 16, 25, 81, 256, 625}, Loop: "hub"},
	{Points: []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}, Loop: "leaf"},
}

func prepareDesign(rng *rand.Rand, smoke bool) (bench, error) {
	strata, sessions, warmUp := designStrata, designSessions, designWarmUp
	if smoke {
		strata, sessions, warmUp = designSmokeStrata, designSmokeSessions, designWarmUp[:1]
	}
	b := &designBench{}
	for _, req := range warmUp {
		w, err := predict(req)
		if err != nil {
			return nil, err
		}
		b.warmUp = append(b.warmUp, designQuery{Req: req, want: w})
	}
	var fresh []designQuery
	for n := range sessions {
		var s []designQuery
		for i, st := range strata {
			// The factor count steps through the stratum's range from one
			// session to the next, each stratum at its own phase: a cycle
			// holds every count equally often whatever the seed, and the
			// costliest queries, 15 factors with no loop or hub loops, never
			// share a session.
			k := st.lo + (n+i)%(st.hi-st.lo+1)
			pts := make([]int, k)
			for i, j := range rng.Perm(len(designPool))[:k] {
				pts[i] = designPool[j]
			}
			q := designQuery{Req: service.DesignRequest{Points: pts, Loop: st.loop}}
			w, err := predict(q.Req)
			if err != nil {
				return nil, err
			}
			q.want = w
			s = append(s, q)
		}
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		recent := fresh[max(len(fresh)-designRepeatWindow, 0):]
		fresh = append(fresh, s...)
		for range designRepeats {
			// A repeat goes after at least one fresh query of its session
			// and repeats a design queried before it.
			pos := 1 + rng.IntN(len(s))
			var earlier []designQuery
			earlier = append(earlier, recent...)
			for _, q := range s[:pos] {
				if !q.Repeat {
					earlier = append(earlier, q)
				}
			}
			src := earlier[rng.IntN(len(earlier))]
			pts := slices.Clone(src.Req.Points)
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			rep := designQuery{Req: service.DesignRequest{Points: pts, Loop: src.Req.Loop}, Repeat: true, want: src.want}
			s = slices.Insert(s, pos, rep)
		}
		b.sessions = append(b.sessions, s)
	}
	return b, nil
}

// predict computes a design's vertices, edges and triangles through kron,
// on the sorted factor order.
func predict(req service.DesignRequest) (designWant, error) {
	pts := slices.Sorted(slices.Values(req.Points))
	d, err := service.DesignRequest{Points: pts, Loop: req.Loop}.Build()
	if err != nil {
		return designWant{}, err
	}
	tri, err := d.Triangles()
	if err != nil {
		return designWant{}, err
	}
	return designWant{d.NumVertices().String(), d.NumEdges().String(), tri.String()}, nil
}

func (b *designBench) inputs() any {
	return struct {
		WarmUp   []designQuery   `json:"warm_up"`
		Sessions [][]designQuery `json:"sessions"`
	}{b.warmUp, b.sessions}
}

func (b *designBench) setUp(ctx context.Context) error {
	srv, err := startServer(ctx)
	if err != nil {
		return err
	}
	b.srv = srv
	return b.session(ctx, b.warmUp, nil)
}

func (b *designBench) tearDown() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

func (b *designBench) scrape(ctx context.Context) (map[string]float64, error) {
	return b.srv.scrape(ctx)
}

func (b *designBench) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	return opResult{}, b.session(ctx, b.sessions[i%len(b.sessions)], tr)
}

// session posts each query in order and checks each answer.
func (b *designBench) session(ctx context.Context, qs []designQuery, tr *tracer) error {
	root := tr.begin("client.op", 0)
	defer tr.end(root)
	for _, q := range qs {
		var p service.DesignProperties
		sp := tr.begin("service.design", root)
		err := b.srv.call(ctx, http.MethodPost, "/v1/designs", q.Req, &p)
		tr.end(sp)
		if err != nil {
			return err
		}
		if got := (designWant{p.Vertices, p.Edges, p.Triangles}); got != q.want {
			return fmt.Errorf("%w: %v: service answers %+v, kron %+v", errUnverified, q.Req, got, q.want)
		}
	}
	return nil
}

// layers times the closed forms directly on the cycle's first fresh
// designs.
func (b *designBench) layers(ctx context.Context, tr *tracer, m metrics) error {
	root := tr.begin("client.replay", 0)
	defer tr.end(root)
	var designs []service.DesignRequest
	for _, s := range b.sessions[:min(2, len(b.sessions))] {
		for _, q := range s {
			if !q.Repeat {
				designs = append(designs, q.Req)
			}
		}
	}
	return replayCore(tr, root, designs, m)
}
