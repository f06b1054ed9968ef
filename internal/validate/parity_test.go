package validate

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/star"
)

// The streaming engine must measure exactly what the materialized engine
// measures — vertices, edges, degree distribution, triangles — on randomized
// designs across worker counts, including under -race (the CI race step
// covers this package). This is the parity contract that let the global
// sort-and-dedupe pipeline be deleted. Run is the one-shard merge, so the
// K-shard merges are held against the materialized engine too: it is the
// only engine that shares no code with the shard path.
func TestStreamingMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 12; trial++ {
		nFactors := 2 + rng.Intn(2)
		pts := make([]int, nFactors)
		for i := range pts {
			pts[i] = 2 + rng.Intn(5)
		}
		loop := loops[rng.Intn(len(loops))]
		nb := 1 + rng.Intn(nFactors-1)
		d, err := core.FromPoints(pts, loop)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunMaterialized(context.Background(), d, nb, 2)
		if err != nil {
			t.Fatalf("%v: materialized: %v", d, err)
		}
		engines := []struct {
			name string
			run  func(np int) (*Report, error)
		}{
			{"streaming", func(np int) (*Report, error) { return Run(context.Background(), d, nb, np) }},
			{"2-shard merge", func(np int) (*Report, error) { return runMerged(d, nb, np, 2) }},
			{"3-shard merge", func(np int) (*Report, error) { return runMerged(d, nb, np, 3) }},
		}
		for _, e := range engines {
			for _, np := range []int{1, 2, 4} {
				got, err := e.run(np)
				if err != nil {
					t.Fatalf("%v np=%d: %s: %v", d, np, e.name, err)
				}
				if got.MeasuredVertices != want.MeasuredVertices {
					t.Errorf("%v np=%d %s: vertices %d, materialized %d", d, np, e.name, got.MeasuredVertices, want.MeasuredVertices)
				}
				if got.MeasuredEdges != want.MeasuredEdges {
					t.Errorf("%v np=%d %s: edges %d, materialized %d", d, np, e.name, got.MeasuredEdges, want.MeasuredEdges)
				}
				if got.MeasuredTriangles != want.MeasuredTriangles {
					t.Errorf("%v np=%d %s: triangles %d, materialized %d", d, np, e.name, got.MeasuredTriangles, want.MeasuredTriangles)
				}
				if !bigdeg.Equal(got.MeasuredDegrees, want.MeasuredDegrees) {
					t.Errorf("%v np=%d %s: degree distributions differ", d, np, e.name)
				}
				if got.ExactAgreement != want.ExactAgreement {
					t.Errorf("%v np=%d %s: agreement %v, materialized %v", d, np, e.name, got.ExactAgreement, want.ExactAgreement)
				}
			}
		}
	}
}

// runMerged validates d shard by shard over its K-shard plan with np
// workers and merges the reports.
func runMerged(d *core.Design, nb, np, K int) (*Report, error) {
	plan, err := gen.PlanDesignShards(d, nb, K)
	if err != nil {
		return nil, err
	}
	reports := make([]*ShardReport, len(plan))
	for i, s := range plan {
		if reports[i], err = RunShard(context.Background(), d, nb, np, s); err != nil {
			return nil, err
		}
	}
	return Merge(context.Background(), reports, np)
}

func TestRunCancelled(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, d, 2, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// The materialized baseline keeps the historical 2^27 cap; the streaming
// engine accepts designs 8× beyond it (realizing one here would be too slow
// for a unit test, so only the bound logic is checked).
func TestEdgeCaps(t *testing.T) {
	if MaxRealizableEdges < 8*(1<<27) {
		t.Fatalf("MaxRealizableEdges = %d, want ≥ 8× the historical 2^27", int64(MaxRealizableEdges))
	}
	// ~691M edges: over the materialized engine's cap, under the streaming
	// engine's.
	d, err := core.FromPoints([]int{3, 4, 5, 9, 16, 25, 25}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if p.Edges.Int64() <= 1<<27 || p.Edges.Int64() > MaxRealizableEdges {
		t.Fatalf("test design has %s edges; want in (2^27, 2^30]", p.Edges)
	}
	if _, err := RunMaterialized(context.Background(), d, 3, 2); err == nil {
		t.Error("materialized engine accepted a design over 2^27 edges")
	}
}
