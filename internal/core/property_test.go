package core

import (
	"math/rand"
	"testing"

	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

// randomDesign draws a small random design (2-4 factors, m̂ in [2, 7],
// uniform random loop mode) whose realization stays tiny.
func randomDesign(t *testing.T, rng *rand.Rand) *Design {
	t.Helper()
	n := 2 + rng.Intn(3)
	pts := make([]int, n)
	for i := range pts {
		pts[i] = 2 + rng.Intn(6)
	}
	loop := star.LoopMode(rng.Intn(3))
	d, err := FromPoints(pts, loop)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Property: for random small designs, every design-side prediction matches
// the realized matrix exactly — the paper's core claim, exercised across
// the whole (small) design space rather than the enumerated cases.
func TestRandomDesignsRealizeExactly(t *testing.T) {
	sr := semiring.PlusTimesInt64()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		d := randomDesign(t, rng)
		a, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		canon := a.Dedupe(sr)

		if got, want := int64(canon.NNZ()), d.NumEdges(); !want.IsInt64() || got != want.Int64() {
			t.Fatalf("%v: realized %d edges, predicted %s", d, got, want)
		}
		if got, want := int64(a.NumRows), d.NumVertices(); got != want.Int64() {
			t.Fatalf("%v: realized %d vertices, predicted %s", d, got, want)
		}
		// Degree distribution.
		dist, err := d.DegreeDistribution()
		if err != nil {
			t.Fatal(err)
		}
		hist := sparse.DegreeHistogram(canon, sr)
		if len(hist) != dist.Len() {
			t.Fatalf("%v: %d realized degrees, %d predicted", d, len(hist), dist.Len())
		}
		for _, e := range dist.Entries() {
			if !e.D.IsInt64() {
				t.Fatal("degree overflow in small design")
			}
			if got := int64(hist[int(e.D.Int64())]); got != e.N.Int64() {
				t.Fatalf("%v: n(%s) realized %d, predicted %s", d, e.D, got, e.N)
			}
		}
		// Symmetry is preserved by Kronecker products of symmetric factors.
		if !canon.IsSymmetric(sr) {
			t.Fatalf("%v: realized matrix not symmetric", d)
		}
		// No self-loops survive.
		if sparse.Trace(canon, sr) != 0 {
			t.Fatalf("%v: diagonal entries remain after loop removal", d)
		}
	}
}

// Property: edge counts and vertex counts are multiplicative across a split,
// up to the single removed self-loop.
func TestSplitCountsMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d := randomDesign(t, rng)
		nb := 1 + rng.Intn(d.NumFactors()-1)
		b, c, err := d.Split(nb)
		if err != nil {
			t.Fatal(err)
		}
		wantV := d.NumVertices()
		gotV := b.NumVertices()
		gotV.Mul(gotV, c.NumVertices())
		if gotV.Cmp(wantV) != 0 {
			t.Fatalf("%v split %d: vertex product %s, want %s", d, nb, gotV, wantV)
		}
		wantRaw := d.NNZWithLoops()
		gotRaw := b.NNZWithLoops()
		gotRaw.Mul(gotRaw, c.NNZWithLoops())
		if gotRaw.Cmp(wantRaw) != 0 {
			t.Fatalf("%v split %d: nnz product %s, want %s", d, nb, gotRaw, wantRaw)
		}
	}
}

func TestSplitBalanced(t *testing.T) {
	d, err := FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := d.BalancedSplitPoint(200000)
	if err != nil {
		t.Fatal(err)
	}
	b, c, err := d.Split(nb)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZWithLoops().Int64() > 200000 {
		t.Errorf("C side nnz %s exceeds bound", c.NNZWithLoops())
	}
	if b.NumFactors()+c.NumFactors() != d.NumFactors() {
		t.Error("split lost factors")
	}
	// C should be the largest suffix under the bound: {81,256} has
	// 162·512 = 82944 ≤ 200000, and adding 25 (nnz 50) would exceed it.
	if c.NumFactors() != 2 {
		t.Errorf("C has %d factors, want 2", c.NumFactors())
	}
	// Bound smaller than the last factor alone: error.
	if _, err := d.BalancedSplitPoint(100); err == nil {
		t.Error("impossible bound accepted")
	}
	single, err := FromPoints([]int{3}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.BalancedSplitPoint(1000); err == nil {
		t.Error("single-factor split accepted")
	}
}

func TestLoopPositionModes(t *testing.T) {
	hub, _ := FromPoints([]int{3, 4}, star.LoopHub)
	if r, c, ok := hub.LoopPosition(); !ok || r != 0 || c != 0 {
		t.Errorf("hub loop position = (%d,%d,%v)", r, c, ok)
	}
	leaf, _ := FromPoints([]int{3, 4}, star.LoopLeaf)
	if r, c, ok := leaf.LoopPosition(); !ok || r != 19 || c != 19 {
		t.Errorf("leaf loop position = (%d,%d,%v), want (19,19,true)", r, c, ok)
	}
	none, _ := FromPoints([]int{3, 4}, star.LoopNone)
	if _, _, ok := none.LoopPosition(); ok {
		t.Error("no-loop design reports a loop")
	}
	// Decetta-scale leaf design: loop present but position saturates.
	pts := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	big, _ := FromPoints(pts, star.LoopLeaf)
	if r, _, ok := big.LoopPosition(); !ok || r != -1 {
		t.Errorf("extreme-scale loop position = (%d, ..., %v)", r, ok)
	}
}
