// Micro-benchmarks for the sparse substrate primitives every experiment
// rests on: Kronecker products, masked multiply, format conversion, and the
// two triangle counters.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
	"repro/internal/triangle"
)

var benchSR = semiring.PlusTimesInt64()

func randomSquare(n int, density float64, seed int64) *sparse.COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var tr []sparse.Triple[int64]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				tr = append(tr, sparse.Triple[int64]{Row: i, Col: j, Val: int64(1 + rng.Intn(4))})
			}
		}
	}
	return sparse.MustCOO(n, n, tr)
}

func BenchmarkSparseKron(b *testing.B) {
	for _, n := range []int{16, 64} {
		a := randomSquare(n, 0.1, 1)
		c := randomSquare(n, 0.1, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparse.Kron(a, c, benchSR); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Masked triangle-pattern multiply: the masked form is the one that keeps
// hub-heavy Kronecker graphs tractable.
func BenchmarkSparseMxMMaskedTriangle(b *testing.B) {
	d, err := starProduct()
	if err != nil {
		b.Fatal(err)
	}
	csr := d.ToCSR(benchSR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.MxMMasked(csr, csr, csr, benchSR); err != nil {
			b.Fatal(err)
		}
	}
}

func starProduct() (*sparse.COO[int64], error) {
	a := star.Spec{Points: 16, Loop: star.LoopHub}.Adjacency()
	c := star.Spec{Points: 9, Loop: star.LoopHub}.Adjacency()
	return sparse.Kron(a, c, benchSR)
}

func BenchmarkSparseToCSR(b *testing.B) {
	m := randomSquare(256, 0.05, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ToCSR(benchSR)
	}
}

func BenchmarkSparseTransposeCSR(b *testing.B) {
	m := randomSquare(256, 0.05, 6).ToCSR(benchSR)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transpose()
	}
}

func BenchmarkTriangleCounters(b *testing.B) {
	g, err := starProduct()
	if err != nil {
		b.Fatal(err)
	}
	g.Remove(0, 0)
	b.Run("linear-algebra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := triangle.CountLinearAlgebra(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge-iterator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := triangle.CountNodeIterator(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
