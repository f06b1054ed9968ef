package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/triangle"
	"repro/kron"
)

// validatePoints is the validate workload's hub-loop point set: 434,510
// edges, so a run completes about fifty exact validations. Triangle
// counting dominates each one.
var (
	validatePoints      = []int{3, 4, 5, 9, 16}
	validateSmokePoints = []int{3, 4, 5}
)

// validateBench is the validate workload's run: every op is kron.Validate
// — what kronvalidate runs — on one factor order of the point set, split
// as the service splits it, with no HTTP.
type validateBench struct {
	// warmUp is the point set in its listed order, so set-up does the same
	// work whatever the seed.
	warmUp service.DesignRequest
	orders []service.DesignRequest
	edges  int64
}

func prepareValidate(rng *rand.Rand, smoke bool) (bench, error) {
	points := validatePoints
	if smoke {
		points = validateSmokePoints
	}
	d, err := kron.FromPoints(points, kron.LoopHub)
	if err != nil {
		return nil, err
	}
	return &validateBench{
		warmUp: service.DesignRequest{Points: points, Loop: "hub"},
		orders: factorOrders(rng, points, "hub"),
		edges:  d.NumEdges().Int64(),
	}, nil
}

func (b *validateBench) inputs() any {
	return struct {
		Edges       int64                   `json:"edges"`
		WarmUp      service.DesignRequest   `json:"warm_up"`
		FactorOrder []service.DesignRequest `json:"factor_orders"`
	}{b.edges, b.warmUp, b.orders}
}

// setUp has no system to start: it is the warm-up validation alone.
func (b *validateBench) setUp(ctx context.Context) error {
	_, err := b.validate(ctx, b.warmUp, nil)
	return err
}

func (b *validateBench) tearDown() {}

func (b *validateBench) scrape(context.Context) (map[string]float64, error) { return nil, nil }

func (b *validateBench) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	rep, err := b.validate(ctx, b.orders[i%len(b.orders)], tr)
	if err != nil {
		return opResult{}, err
	}
	return opResult{edges: rep.MeasuredEdges}, nil
}

// validate runs one exact validation and checks that it agrees.
func (b *validateBench) validate(ctx context.Context, req service.DesignRequest, tr *tracer) (*kron.ValidationReport, error) {
	root := tr.begin("client.op", 0)
	defer tr.end(root)
	d, split, err := splitDesign(req)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("validate.run", root)
	rep, err := kron.Validate(ctx, d, split, jobWorkers())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !rep.ExactAgreement {
		return nil, fmt.Errorf("%w: validation of %v disagrees: %v", errUnverified, req, rep.Mismatches)
	}
	if rep.MeasuredEdges != b.edges {
		return nil, fmt.Errorf("%w: validation measured %d edges, the design predicts %d", errUnverified, rep.MeasuredEdges, b.edges)
	}
	return rep, nil
}

// splitDesign builds the design and the split the service would use.
func splitDesign(req service.DesignRequest) (*kron.Design, int, error) {
	d, err := req.Build()
	if err != nil {
		return nil, 0, err
	}
	split, err := kron.BalancedSplitPoint(d, service.DefaultConfig().MaxCNNZ)
	return d, split, err
}

// layers runs one real validation, then replays its phases through their
// public calls — the tally and scatter passes into a sparse.CSRBuilder, the
// builder's finalize and build, and triangle.CountBothCSR — on the same
// design. The replay must measure the report's edges and triangles.
func (b *validateBench) layers(ctx context.Context, tr *tracer, m metrics) error {
	root := tr.begin("client.replay", 0)
	defer tr.end(root)
	req := b.orders[0]
	rep, err := b.validate(ctx, req, tr)
	if err != nil {
		return err
	}
	d, split, err := splitDesign(req)
	if err != nil {
		return err
	}
	np := jobWorkers()

	// The enumerated and closed-form engines must agree with each other and
	// with the report's edge count.
	g, err := kron.NewGenerator(d, split)
	if err != nil {
		return err
	}
	cks := kron.NewChecksum(np)
	if err := kron.StreamTo(ctx, g, np, 0, cks); err != nil {
		return err
	}
	if _, err := replayGen(ctx, tr, root, d, split, streamCount{rep.MeasuredEdges, cks.Sum()}, m); err != nil {
		return err
	}

	phases := map[string][]float64{}
	timed := func(name string, f func() error) error {
		sp := tr.begin(name, root)
		t0 := time.Now()
		err := f()
		phases[name] = append(phases[name], time.Since(t0).Seconds())
		tr.end(sp)
		return err
	}
	n := int(g.NumVertices())
	var tri int64
	var nnz int
	for range replayRepeats {
		builder, err := sparse.NewCSRBuilder[int64](n, n, np)
		if err != nil {
			return err
		}
		var a *sparse.CSR[int64]
		steps := []struct {
			name string
			f    func() error
		}{
			{"validate.tally", func() error {
				return kron.StreamTo(ctx, g, np, 0, kron.SinkFunc(func(w int, batch []kron.Edge) error {
					for _, e := range batch {
						builder.Count(w, int(e.Row))
					}
					return nil
				}))
			}},
			{"sparse.finalize", builder.Finalize},
			{"validate.scatter", func() error {
				return kron.StreamTo(ctx, g, np, 0, kron.SinkFunc(func(w int, batch []kron.Edge) error {
					for _, e := range batch {
						builder.Place(w, int(e.Row), int(e.Col), e.Val)
					}
					return nil
				}))
			}},
			{"sparse.build", func() (err error) { a, err = builder.Build(); return err }},
			{"triangle.count", func() (err error) { tri, err = triangle.CountBothCSR(ctx, a, np); return err }},
		}
		for _, s := range steps {
			if err := timed(s.name, s.f); err != nil {
				return fmt.Errorf("replaying %s: %w", s.name, err)
			}
		}
		nnz = builder.NNZ()
	}
	if int64(nnz) != rep.MeasuredEdges || tri != rep.MeasuredTriangles {
		return fmt.Errorf("replay measured %d edges and %d triangles, kron.Validate %d and %d",
			nnz, tri, rep.MeasuredEdges, rep.MeasuredTriangles)
	}
	for name, times := range phases {
		m.set(name+"_s", median(times), "s")
	}
	m.set("validate.edges", float64(rep.MeasuredEdges), "count")
	m.set("triangle.triangles", float64(tri), "count")
	return replayCore(tr, root, b.orders[:replayDesigns], m)
}
