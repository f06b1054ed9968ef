package spectrum

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

func TestPowerIterationKnownRadius(t *testing.T) {
	sr := semiring.PlusTimesFloat64()
	// K3: radius 2.
	k3 := sparse.FromDense([][]float64{
		{0, 1, 1},
		{1, 0, 1},
		{1, 1, 0},
	}, sr).ToCSR(sr)
	r, err := PowerIteration(k3, 500, 1e-12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2) > 1e-8 {
		t.Errorf("K3 radius = %v, want 2", r)
	}
	// Bipartite star(9): radius 3 with eigenvalues ±3 both dominant.
	s := Float64CSR(star.Spec{Points: 9, Loop: star.LoopNone}.Adjacency())
	r, err = PowerIteration(s, 500, 1e-12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-3) > 1e-8 {
		t.Errorf("star(9) radius = %v, want 3", r)
	}
}

func TestPowerIterationValidation(t *testing.T) {
	sr := semiring.PlusTimesFloat64()
	rect := sparse.MustCOO[float64](2, 3, nil).ToCSR(sr)
	if _, err := PowerIteration(rect, 10, 1e-6, 1); err == nil {
		t.Error("non-square accepted")
	}
	empty := sparse.MustCOO[float64](0, 0, nil).ToCSR(sr)
	if _, err := PowerIteration(empty, 10, 1e-6, 1); err == nil {
		t.Error("empty accepted")
	}
	zero := sparse.MustCOO[float64](3, 3, nil).ToCSR(sr)
	r, err := PowerIteration(zero, 10, 1e-6, 1)
	if err != nil || r != 0 {
		t.Errorf("zero matrix radius = %v, %v", r, err)
	}
}

// The design-side radius prediction must match power iteration on realized
// raw products, and bound the loop-removed graph's radius within 1.
func TestDesignRadiusMatchesRealized(t *testing.T) {
	for _, tc := range []struct {
		pts  []int
		loop star.LoopMode
	}{
		{[]int{3, 4}, star.LoopNone},
		{[]int{5, 3}, star.LoopNone},
		{[]int{3, 4}, star.LoopHub},
		{[]int{5, 3}, star.LoopHub},
		{[]int{3, 4}, star.LoopLeaf},
		{[]int{3, 4, 5}, star.LoopHub},
	} {
		d, err := core.FromPoints(tc.pts, tc.loop)
		if err != nil {
			t.Fatal(err)
		}
		predicted, err := DesignRadius(d.Factors())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := rawProduct(d)
		if err != nil {
			t.Fatal(err)
		}
		measured, err := PowerIteration(Float64CSR(raw), 3000, 1e-12, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(predicted-measured) > 1e-5*math.Max(1, predicted) {
			t.Errorf("%v: predicted radius %v, measured %v", d, predicted, measured)
		}
		// Loop removal perturbs by at most 1 (Weyl).
		final, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		finalR, err := PowerIteration(Float64CSR(final), 3000, 1e-12, 6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(finalR-predicted) > 1+1e-6 {
			t.Errorf("%v: final radius %v more than 1 from prediction %v", d, finalR, predicted)
		}
	}
}

// rawProduct realizes d's Kronecker product with its self-loop kept.
func rawProduct(d *core.Design) (*sparse.COO[int64], error) {
	var factors []*sparse.COO[int64]
	for _, f := range d.Factors() {
		factors = append(factors, f.Adjacency())
	}
	return sparse.KronN(semiring.PlusTimesInt64(), factors...)
}
