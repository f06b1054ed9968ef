package spectrum

import (
	"math"

	"repro/internal/star"
)

// FactorSpectrum is the exact eigenvalue structure of one star constituent:
// the handful of eigenvalues of its equitable-partition quotient (each with
// multiplicity 1) plus a zero eigenvalue of multiplicity ZeroMult.
type FactorSpectrum struct {
	Quotient []float64
	ZeroMult int
}

// Star computes the constituent's adjacency spectrum through its equitable
// partition — {hub, leaves} for plain and hub-loop stars, {hub, looped leaf,
// other leaves} for leaf-loop stars — so even m̂ = 14641 costs a 3×3
// eigenproblem instead of a 14642×14642 one:
//
//	none: ±√m̂ and 0^(m̂−1)
//	hub:  (1±√(1+4m̂))/2 and 0^(m̂−1)
//	leaf: the three roots of the symmetrized quotient and 0^(m̂−2)
func Star(s star.Spec) (FactorSpectrum, error) {
	if err := s.Validate(); err != nil {
		return FactorSpectrum{}, err
	}
	mh := float64(s.Points)
	var cells []float64 // cell sizes
	var b [][]float64   // quotient: b[i][j] = neighbors a cell-i vertex has in cell j
	switch s.Loop {
	case star.LoopNone:
		cells = []float64{1, mh}
		b = [][]float64{{0, mh}, {1, 0}}
	case star.LoopHub:
		cells = []float64{1, mh}
		b = [][]float64{{1, mh}, {1, 0}}
	case star.LoopLeaf:
		cells = []float64{1, 1, mh - 1}
		b = [][]float64{
			{0, 1, mh - 1},
			{1, 1, 0},
			{1, 0, 0},
		}
	}
	// Symmetrize: S[i][j] = B[i][j]·√(n_i/n_j) is similar to B for an
	// equitable partition, so Jacobi applies.
	n := len(b)
	sym := make([][]float64, n)
	for i := range sym {
		sym[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			sym[i][j] = b[i][j] * math.Sqrt(cells[i]/cells[j])
		}
	}
	eig, err := Jacobi(sym, 0, 0)
	if err != nil {
		return FactorSpectrum{}, err
	}
	return FactorSpectrum{Quotient: eig, ZeroMult: s.Vertices() - n}, nil
}

// Radius returns the constituent's spectral radius max|λ|.
func (f FactorSpectrum) Radius() float64 {
	r := 0.0
	for _, v := range f.Quotient {
		if a := math.Abs(v); a > r {
			r = a
		}
	}
	return r
}

// DesignRadius returns the spectral radius of the raw Kronecker product
// ⊗ₖAₖ: the product of the factor radii (eig(A⊗B) = {λμ}). The removed
// self-loop of looped designs is a rank-1, norm-1 perturbation, so the final
// graph's radius differs from this by at most 1 (Weyl's inequality).
func DesignRadius(factors []star.Spec) (float64, error) {
	r := 1.0
	for _, f := range factors {
		fs, err := Star(f)
		if err != nil {
			return 0, err
		}
		r *= fs.Radius()
	}
	return r, nil
}
