// Ablation and extension benchmarks: the design-search tool, spectral
// computations, distributed degree measurement, and structural analysis.
package repro

import (
	"math/big"
	"testing"

	"repro/internal/search"
	"repro/internal/spectrum"
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

// BenchmarkSpectrumFullTrillion enumerates the complete eigenvalue multiset
// of the trillion-edge design (2^8 nonzero eigenvalues + zeros).
func BenchmarkSpectrumFullTrillion(b *testing.B) {
	d, err := kron.FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.ProductSpectrum(d.Factors(), 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetweenness measures exact Brandes betweenness on a realized
// Figure 2-scale design (future-work feature).
func BenchmarkBetweenness(b *testing.B) {
	d, err := kron.FromPoints([]int{5, 3, 4}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	g, err := kron.Analyze(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BetweennessCentrality()
	}
}

// BenchmarkTriangleEnumeration measures listing (not just counting) every
// triangle of a realized design.
func BenchmarkTriangleEnumeration(b *testing.B) {
	d, err := kron.FromPoints([]int{5, 3, 4}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	g, err := kron.Analyze(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.EnumerateTriangles(0)
	}
}
