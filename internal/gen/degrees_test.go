package gen

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/star"
)

// streamedRowDegrees tallies the generated graph's row degrees (the paper's
// vertex degrees) from an np-worker stream, one private tally per worker
// summed afterwards. The generator never emits duplicate entries, so the
// tallies are exact.
func streamedRowDegrees(t *testing.T, g *Generator, np int) []int64 {
	t.Helper()
	locals := make([][]int64, np)
	for p := range locals {
		locals[p] = make([]int64, g.NumVertices())
	}
	err := g.StreamTo(context.Background(), np, 0, pipeline.Func(func(p int, batch []Edge) error {
		for _, e := range batch {
			locals[p][e.Row]++
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	total := make([]int64, g.NumVertices())
	for _, local := range locals {
		for v, n := range local {
			total[v] += n
		}
	}
	return total
}

// Streamed degree tallies must equal the realized matrix's row degrees for
// every loop mode and worker count.
func TestRowDegreesMatchRealized(t *testing.T) {
	for _, tc := range []struct {
		pts  []int
		loop star.LoopMode
	}{
		{[]int{3, 4, 5}, star.LoopNone},
		{[]int{3, 4, 5}, star.LoopHub},
		{[]int{3, 4, 5}, star.LoopLeaf},
	} {
		d, g := mustGen(t, tc.pts, tc.loop, 2)
		a, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		want := sparse.RowNNZCounts(a, sr)
		for _, np := range []int{1, 3, 8} {
			got := streamedRowDegrees(t, g, np)
			if len(got) != len(want) {
				t.Fatalf("%v: %d degrees, want %d", d, len(got), len(want))
			}
			for v := range want {
				if got[v] != int64(want[v]) {
					t.Errorf("%v np=%d: degree[%d] = %d, want %d", d, np, v, got[v], want[v])
				}
			}
		}
	}
}

// The streamed degree histogram must equal the design's predicted
// distribution.
func TestDegreeHistogramMatchesPrediction(t *testing.T) {
	d, g := mustGen(t, []int{3, 4, 5, 9}, star.LoopHub, 2)
	hist := make(map[int64]int64)
	for _, deg := range streamedRowDegrees(t, g, 4) {
		if deg > 0 {
			hist[deg]++
		}
	}
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(hist)) != int64(dist.Len()) {
		t.Fatalf("histogram has %d degrees, prediction %d", len(hist), dist.Len())
	}
	for deg, n := range hist {
		if want := dist.CountAt(big.NewInt(deg)); want.Int64() != n {
			t.Errorf("n(%d) = %d, predicted %s", deg, n, want)
		}
	}
}

// Degree sum equals twice nothing — it equals the edge (nnz) count exactly.
func TestRowDegreesSumEqualsEdges(t *testing.T) {
	_, g := mustGen(t, []int{3, 4, 5}, star.LoopLeaf, 1)
	var sum int64
	for _, v := range streamedRowDegrees(t, g, 3) {
		sum += v
	}
	if sum != g.NumEdges() {
		t.Errorf("Σdeg = %d, want %d", sum, g.NumEdges())
	}
}
