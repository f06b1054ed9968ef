package spectrum

import (
	"math"
	"sort"
	"testing"

	"repro/internal/semiring"
	"repro/internal/star"
)

func TestJacobiKnownMatrices(t *testing.T) {
	// Diagonal matrix: eigenvalues are the diagonal.
	eig, err := Jacobi([][]float64{{3, 0}, {0, -1}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-12 || math.Abs(eig[1]+1) > 1e-12 {
		t.Errorf("diagonal eig = %v", eig)
	}
	// [[2,1],[1,2]] → 3, 1.
	eig, err = Jacobi([][]float64{{2, 1}, {1, 2}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Errorf("eig = %v, want [3 1]", eig)
	}
	// K3 adjacency → 2, -1, -1.
	eig, err = Jacobi([][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -1, -1}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Errorf("K3 eig = %v", eig)
		}
	}
}

func TestJacobiValidation(t *testing.T) {
	if _, err := Jacobi([][]float64{{0, 1}}, 0, 0); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Jacobi([][]float64{{0, 1}, {2, 0}}, 0, 0); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	eig, err := Jacobi([][]float64{{0, 0}, {0, 0}}, 0, 0)
	if err != nil || eig[0] != 0 || eig[1] != 0 {
		t.Errorf("zero matrix eig = %v, %v", eig, err)
	}
}

// Closed-form star spectra: ±√m̂ (plain), (1±√(1+4m̂))/2 (hub loop).
func TestStarClosedForms(t *testing.T) {
	for _, mh := range []int{3, 5, 9, 16, 81, 14641} {
		fs, err := Star(star.Spec{Points: mh, Loop: star.LoopNone})
		if err != nil {
			t.Fatal(err)
		}
		r := math.Sqrt(float64(mh))
		if len(fs.Quotient) != 2 ||
			math.Abs(fs.Quotient[0]-r) > 1e-9*r ||
			math.Abs(fs.Quotient[1]+r) > 1e-9*r {
			t.Errorf("plain star(%d) quotient = %v, want ±√m̂", mh, fs.Quotient)
		}
		if fs.ZeroMult != mh-1 {
			t.Errorf("plain star(%d) zero multiplicity %d, want %d", mh, fs.ZeroMult, mh-1)
		}

		fh, err := Star(star.Spec{Points: mh, Loop: star.LoopHub})
		if err != nil {
			t.Fatal(err)
		}
		disc := math.Sqrt(1 + 4*float64(mh))
		wantHi, wantLo := (1+disc)/2, (1-disc)/2
		if math.Abs(fh.Quotient[0]-wantHi) > 1e-9*disc ||
			math.Abs(fh.Quotient[1]-wantLo) > 1e-9*disc {
			t.Errorf("hub star(%d) quotient = %v, want (1±√(1+4m̂))/2", mh, fh.Quotient)
		}
	}
}

// The quotient construction must reproduce the spectrum of the realized
// constituent matrix (diagonalized directly), for all loop modes.
func TestStarSpectrumMatchesDense(t *testing.T) {
	sr := semiring.PlusTimesInt64()
	for _, mode := range []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf} {
		for _, mh := range []int{2, 3, 5, 9} {
			s := star.Spec{Points: mh, Loop: mode}
			fs, err := Star(s)
			if err != nil {
				t.Fatal(err)
			}
			denseInt := s.Adjacency().Dense(sr)
			dense := make([][]float64, len(denseInt))
			for i, row := range denseInt {
				dense[i] = make([]float64, len(row))
				for j, v := range row {
					dense[i][j] = float64(v)
				}
			}
			direct, err := Jacobi(dense, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var combined []float64
			combined = append(combined, fs.Quotient...)
			for i := 0; i < fs.ZeroMult; i++ {
				combined = append(combined, 0)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(combined)))
			if len(combined) != len(direct) {
				t.Fatalf("%v: %d quotient+zero eigenvalues, dense has %d", s, len(combined), len(direct))
			}
			for i := range direct {
				if math.Abs(combined[i]-direct[i]) > 1e-8 {
					t.Errorf("%v: eig %d = %v (quotient) vs %v (dense)", s, i, combined[i], direct[i])
				}
			}
		}
	}
}

func TestDesignRadiusDecetta(t *testing.T) {
	// The design-side radius of the 10³⁰-edge graph is a laptop computation.
	pts := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	r, err := DesignRadius(star.Specs(pts, star.LoopLeaf))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r) || r <= 0 {
		t.Fatalf("radius = %v", r)
	}
	// Sanity bound: radius ≤ ∏√(m̂+1)·... loose check: it must exceed the
	// plain-star product ∏√m̂ (loops only add mass) and be finite.
	plain := 1.0
	for _, p := range pts {
		plain *= math.Sqrt(float64(p))
	}
	if r < plain {
		t.Errorf("radius %v below plain-star bound %v", r, plain)
	}
}
