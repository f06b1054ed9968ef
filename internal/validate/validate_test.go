package validate

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/star"
)

// The reproduction of Figure 4's claim at laptop scale: generated graphs
// agree *exactly* with their design-time predictions, for every loop mode
// and multiple worker counts.
func TestExactAgreement(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
		nb   int
		np   int
	}{
		{[]int{3, 4, 5}, star.LoopNone, 2, 1},
		{[]int{3, 4, 5}, star.LoopNone, 2, 4},
		{[]int{3, 4, 5}, star.LoopHub, 2, 3},
		{[]int{3, 4, 5}, star.LoopLeaf, 1, 2},
		{[]int{5, 3}, star.LoopHub, 1, 2},
		{[]int{3, 4, 5, 9}, star.LoopHub, 2, 4},
		{[]int{2, 3, 4, 5}, star.LoopLeaf, 2, 5},
	}
	for _, tc := range cases {
		d, err := core.FromPoints(tc.pts, tc.loop)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(context.Background(), d, tc.nb, tc.np)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if !r.ExactAgreement {
			t.Errorf("%v np=%d: mismatches: %v", d, tc.np, r.Mismatches)
		}
	}
}

func TestReportString(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), d, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"predicted", "measured", "exact agreement", "triangles"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestMismatchDetection(t *testing.T) {
	// Corrupt a prediction and confirm compare() flags it.
	d, err := core.FromPoints([]int{3, 4}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), d, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ExactAgreement {
		t.Fatalf("baseline should agree: %v", r.Mismatches)
	}
	r.PredictedEdges.Add(r.PredictedEdges, r.PredictedVertices)
	r.Mismatches = nil
	r.compare()
	if r.ExactAgreement {
		t.Error("corrupted prediction not detected")
	}
	if !strings.Contains(r.String(), "mismatches") {
		t.Error("report does not surface mismatch")
	}
}

func TestRejectsUnrealizableDesign(t *testing.T) {
	pts := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	d, err := core.FromPoints(pts, star.LoopLeaf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), d, 8, 2)
	if err == nil {
		t.Fatal("decetta-scale design accepted for realization")
	}
	if !strings.Contains(err.Error(), "too large to realize") {
		t.Errorf("err = %v, want the realizability error, not a planning one", err)
	}
}

// The measured graph is a 0/1 adjacency matrix and the pattern CSR stores no
// values, so a value other than 1 must fail with an error naming it rather
// than be placed as if it were 1. The scatter never sees one: a run's block
// is a 0/1 pattern by construction, and graphio.NewBlock refuses the rest.
func TestScatterRejectsNonUnitValue(t *testing.T) {
	block, err := graphio.NewBlock([]graphio.Edge{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 2}})
	if err == nil {
		t.Fatalf("a block carrying value 2 was built with %d edges", block.Len())
	}
	if !strings.Contains(err.Error(), "= 2") {
		t.Errorf("err = %v, want it to name the value", err)
	}
}

// The triangle phase records into its stage: per worker, busy time and the
// oriented-pattern entries each of its three passes (orient, intersect,
// mark) handled, so a run adds three times the undirected edge count.
func TestTriangleStageRecords(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	st := obs.Stages.Stage(stageTriangles)
	before := st.Snapshot()
	r, err := Run(context.Background(), d, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	after := st.Snapshot()
	if got, want := after.Edges-before.Edges, 3*r.MeasuredEdges/2; got != want {
		t.Errorf("stage recorded %d entries, want %d", got, want)
	}
	if after.Batches-before.Batches < 3 || after.Busy <= before.Busy {
		t.Errorf("stage recorded %d batches and %v busy, want a batch per worker per pass",
			after.Batches-before.Batches, after.Busy-before.Busy)
	}
}
