// Ablation and extension benchmarks: the design-search tool and the
// design-side spectral radius.
package repro

import (
	"math/big"
	"testing"

	"repro/internal/search"
	"repro/kron"
)

// BenchmarkSearchTrillionTarget measures the closed-form design search that
// replaces R-MAT's generate-and-measure loop, aimed at the paper's trillion
// no-loop edge count.
func BenchmarkSearchTrillionTarget(b *testing.B) {
	target, _ := new(big.Int).SetString("1146617856000", 10)
	opt := search.Options{
		Candidates: []int{3, 4, 5, 7, 9, 11, 16, 25, 49, 81, 121, 256, 625},
		Loop:       kron.LoopNone,
		MinFactors: 1,
		MaxFactors: 10,
		Tol:        0.02,
		MaxResults: 10,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := search.EdgeTarget(target, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrumDecettaRadius measures the design-side spectral radius of
// the 10³⁰-edge graph (per-factor 3×3 eigenproblems).
func BenchmarkSpectrumDecettaRadius(b *testing.B) {
	d, err := kron.FromPoints(
		[]int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641},
		kron.LoopLeaf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kron.SpectralRadius(d); err != nil {
			b.Fatal(err)
		}
	}
}
