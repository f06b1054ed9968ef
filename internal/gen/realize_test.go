package gen

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/star"
)

// sortedRealization is the oracle for New's ordered realization: the
// design's raw product by KronN, then a comparator sort into CSC order
// (colMajor, the B side) or row-major order (the C side).
func sortedRealization(t *testing.T, d *core.Design, colMajor bool) *sparse.COO[int64] {
	t.Helper()
	var factors []*sparse.COO[int64]
	for _, f := range d.Factors() {
		factors = append(factors, f.Adjacency())
	}
	m, err := sparse.KronN(sr, factors...)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(m.Tr, func(a, b sparse.Triple[int64]) int {
		if colMajor {
			return cmp.Or(a.Col-b.Col, a.Row-b.Row)
		}
		return cmp.Or(a.Row-b.Row, a.Col-b.Col)
	})
	return m
}

// New realizes B column-major and C row-major by construction. Across
// randomized designs — every loop mode, 2–6 factors, every split — the
// triples must equal the sorted KronN oracle exactly, so edge streams,
// checksums and shard plans are unchanged.
func TestOrderedRealizationMatchesSortedKron(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 30; trial++ {
		pts := make([]int, 2+rng.IntN(5))
		for i := range pts {
			pts[i] = 2 + rng.IntN(4)
		}
		d, err := core.FromPoints(pts, loops[trial%len(loops)])
		if err != nil {
			t.Fatal(err)
		}
		for nb := 1; nb < len(pts); nb++ {
			name := fmt.Sprintf("%v split %d", d, nb)
			g, err := New(d, nb)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bd, cd, err := d.Split(nb)
			if err != nil {
				t.Fatal(err)
			}
			wantB := sortedRealization(t, bd, true)
			if g.b.NumRows != wantB.NumRows || g.b.NumCols != wantB.NumCols || !slices.Equal(g.b.Tr, wantB.Tr) {
				t.Fatalf("%s: B differs from the CSC-sorted KronN product", name)
			}
			wantC := sortedRealization(t, cd, false)
			if g.mC != int64(wantC.NumRows) || g.nC != int64(wantC.NumCols) || len(g.cEdges) != len(wantC.Tr) {
				t.Fatalf("%s: C is %dx%d with %d entries, want %dx%d with %d",
					name, g.mC, g.nC, len(g.cEdges), wantC.NumRows, wantC.NumCols, len(wantC.Tr))
			}
			for i, tc := range wantC.Tr {
				if want := (Edge{Row: int64(tc.Row), Col: int64(tc.Col), Val: tc.Val}); g.cEdges[i] != want {
					t.Fatalf("%s: C entry %d is %+v, want %+v", name, i, g.cEdges[i], want)
				}
			}
		}
	}
}

// A split side too large to index fails with MulDim's overflow error
// before any of it is realized.
func TestNewRejectsOversizedSide(t *testing.T) {
	// C: seven 1025-vertex stars, 1025⁷ > 2⁶³ vertices.
	d, err := core.FromPoints([]int{2, 1024, 1024, 1024, 1024, 1024, 1024, 1024}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(d, 1)
	if err == nil || !strings.Contains(err.Error(), "overflows int") {
		t.Fatalf("err = %v, want the MulDim overflow error", err)
	}
}
