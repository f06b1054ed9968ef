package validate

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/star"
)

// The shard parity contract: validating a design shard by shard and merging
// must measure exactly what Run measures — vertices, edges, degree
// distribution, triangles, agreement verdict — on randomized designs across
// shard and worker counts, including under -race (CI's race step covers
// this package). Run is itself the one-shard merge, so this pins that the
// plan's slicing changes nothing; TestStreamingMatchesMaterialized holds
// both against the independent materialized engine. K=7 doesn't divide
// most B-triple counts, exercising uneven slices.
func TestShardUnionMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 8; trial++ {
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
		want, err := Run(context.Background(), d, nb, 2)
		if err != nil {
			t.Fatalf("%v: unsharded: %v", d, err)
		}
		g, err := gen.New(d, nb)
		if err != nil {
			t.Fatal(err)
		}
		for _, K := range []int{1, 2, 3, 7} {
			plan, err := gen.PlanDesignShards(d, nb, K)
			if err != nil {
				t.Fatalf("%v K=%d: plan: %v", d, K, err)
			}
			np := 1 + rng.Intn(4)
			reports := make([]*ShardReport, len(plan))
			for i, s := range plan {
				reports[i], err = RunShard(context.Background(), d, nb, np, s)
				if err != nil {
					t.Fatalf("%v K=%d shard %d: %v", d, K, i, err)
				}
				if reports[i].MeasuredEdges != s.Edges {
					t.Errorf("%v K=%d shard %d: measured %d edges, plan promised %d",
						d, K, i, reports[i].MeasuredEdges, s.Edges)
				}
				// The validation-side fold reconciles against the
				// generation side's count-and-checksum pass over the shard.
				_, sum, err := g.CountShard(context.Background(), s, 2)
				if err != nil {
					t.Fatal(err)
				}
				if reports[i].Checksum != sum {
					t.Errorf("%v K=%d shard %d: checksum %#x, CountShard %#x",
						d, K, i, reports[i].Checksum, sum)
				}
			}
			got, err := Merge(context.Background(), reports, np)
			if err != nil {
				t.Fatalf("%v K=%d: merge: %v", d, K, err)
			}
			if got.MeasuredVertices != want.MeasuredVertices {
				t.Errorf("%v K=%d: vertices %d, unsharded %d", d, K, got.MeasuredVertices, want.MeasuredVertices)
			}
			if got.MeasuredEdges != want.MeasuredEdges {
				t.Errorf("%v K=%d: edges %d, unsharded %d", d, K, got.MeasuredEdges, want.MeasuredEdges)
			}
			if got.MeasuredTriangles != want.MeasuredTriangles {
				t.Errorf("%v K=%d: triangles %d, unsharded %d", d, K, got.MeasuredTriangles, want.MeasuredTriangles)
			}
			if !bigdeg.Equal(got.MeasuredDegrees, want.MeasuredDegrees) {
				t.Errorf("%v K=%d: degree distributions differ", d, K)
			}
			if got.ExactAgreement != want.ExactAgreement {
				t.Errorf("%v K=%d: agreement %v, unsharded %v", d, K, got.ExactAgreement, want.ExactAgreement)
			}
		}
	}
}

// Merge must fail loudly on incomplete or inconsistent coverage rather than
// report on a subset of the design.
func TestMergeRejectsBrokenPlans(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gen.PlanDesignShards(d, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*ShardReport, len(plan))
	for i, s := range plan {
		reports[i], err = RunShard(context.Background(), d, 1, 2, s)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Merge(context.Background(), nil, 1); err == nil {
		t.Error("empty report list accepted")
	}
	if _, err := Merge(context.Background(), reports[:2], 1); err == nil {
		t.Error("incomplete plan (2 of 3 shards) accepted")
	}
	if _, err := Merge(context.Background(), []*ShardReport{reports[0], reports[1], reports[1]}, 1); err == nil {
		t.Error("duplicated shard accepted")
	}
	if _, err := Merge(context.Background(), []*ShardReport{reports[0], reports[1], nil}, 1); err == nil {
		t.Error("nil report accepted")
	}
	// A report whose measured count contradicts its plan slice must not merge.
	bad := *reports[2]
	bad.MeasuredEdges++
	if _, err := Merge(context.Background(), []*ShardReport{reports[0], reports[1], &bad}, 1); err == nil {
		t.Error("edge-count contradiction accepted")
	}
	// Same design, different split: the fragments describe different plans.
	other, err := gen.PlanDesignShards(d, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := RunShard(context.Background(), d, 2, 1, other[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(context.Background(), []*ShardReport{reports[0], reports[1], mixed}, 1); err == nil {
		t.Error("mixed-split merge accepted")
	}

	// A slice set that skips the first B triple: shard 0 measured over
	// [1, BHi), which drops the hub's diagonal (0,0) block, with its edge
	// count lowered to match. Every slice is contiguous with the next and
	// measured exactly what it claims, so only the design's own plan can
	// tell that the union is not the whole graph.
	two, err := gen.PlanDesignShards(d, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	skip := two[0]
	skip.BLo = 1
	short, err := RunShard(context.Background(), d, 1, 2, skip)
	if err != nil {
		t.Fatal(err)
	}
	short.Shard.Edges = short.MeasuredEdges
	rest, err := RunShard(context.Background(), d, 1, 2, two[1])
	if err != nil {
		t.Fatal(err)
	}
	_, err = Merge(context.Background(), []*ShardReport{short, rest}, 1)
	if err == nil {
		t.Fatal("slice set skipping B triple 0 accepted")
	}
	want := fmt.Sprintf("shard 0/2 at [0,%d) with %d edges", two[0].BHi, two[0].Edges)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name shard 0 and its planned range (%q)", err, want)
	}
}

// Satellite 1 boundary: checkRealizable must admit vertex counts up to
// maxRealizableVertices on 64-bit hosts and reject anything past the cap or
// past int64 loudly. (The separate 32-bit int-range rejection between 2^31−1
// and 2^31 is unreachable on 64-bit CI; this test pins the admission boundary
// it protects.)
func TestCheckRealizableBoundary(t *testing.T) {
	props := func(vertices, edges *big.Int) *core.Properties {
		return &core.Properties{Vertices: vertices, Edges: edges}
	}
	ok := []*core.Properties{
		props(big.NewInt(1<<31), big.NewInt(MaxRealizableEdges)),
		props(big.NewInt(1), big.NewInt(1)),
	}
	for _, p := range ok {
		if err := checkRealizable(p.Vertices, p.Edges); err != nil {
			t.Errorf("%s vertices, %s edges rejected: %v", p.Vertices, p.Edges, err)
		}
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 80)
	bad := []*core.Properties{
		props(new(big.Int).Add(big.NewInt(1<<31), big.NewInt(1)), big.NewInt(1)),
		props(big.NewInt(1), big.NewInt(MaxRealizableEdges+1)),
		props(huge, big.NewInt(1)),
		props(big.NewInt(1), huge),
	}
	for _, p := range bad {
		if err := checkRealizable(p.Vertices, p.Edges); err == nil {
			t.Errorf("%s vertices, %s edges accepted", p.Vertices, p.Edges)
		}
	}
}

// seamCtx is a context whose Err flips to Canceled on the second call. The
// materialized engine consults the original context's Err exactly twice: once
// at parallel.RunContext entry inside the stream (RunContext then derives its
// own cancel context, so per-batch checks never reach this object), and once
// at the post-stream seam added to fix the satellite-2 bug. Without that seam
// check the second call never happens and the run completes — so this test
// fails against the unfixed engine.
type seamCtx struct {
	context.Context
	calls int
}

func (c *seamCtx) Err() error {
	c.calls++
	if c.calls >= 2 {
		return context.Canceled
	}
	return nil
}

func (c *seamCtx) Done() <-chan struct{}       { return nil }
func (c *seamCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *seamCtx) Value(key any) any           { return nil }

// Satellite 2 regression: RunMaterialized must observe a cancellation that
// lands between the stream draining and the serial measurement phase.
func TestRunMaterializedCancelledAtSeam(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &seamCtx{Context: context.Background()}
	if _, err := RunMaterialized(ctx, d, 2, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled from the post-stream seam check", err)
	}
}

// RunShard must stop within a batch of a pre-cancelled context, like Run.
func TestRunShardCancelled(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gen.PlanDesignShards(d, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunShard(ctx, d, 2, 2, plan[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
