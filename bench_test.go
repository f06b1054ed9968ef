// Benchmarks regenerating every figure of the paper. Each BenchmarkFigN
// corresponds to the matching figure; see DESIGN.md's per-experiment index.
// Run with: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/rmat"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/triangle"
	"repro/kron"
)

// BenchmarkFig1KronProduct measures the Kronecker product of two bipartite
// stars (Figure 1's construction).
func BenchmarkFig1KronProduct(b *testing.B) {
	sr := semiring.PlusTimesInt64()
	d, err := kron.FromPoints([]int{5, 3}, kron.LoopNone)
	if err != nil {
		b.Fatal(err)
	}
	factors := d.Factors()
	a1 := factors[0].Adjacency()
	a2 := factors[1].Adjacency()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.Kron(a1, a2, sr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2TrianglePrediction measures the closed-form triangle count of
// the Figure 2 designs (design-side, no realization).
func BenchmarkFig2TrianglePrediction(b *testing.B) {
	d, err := kron.FromPoints([]int{5, 3}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Triangles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2TriangleMeasurement measures the brute-force verification of
// Figure 2's counts on the realized 24-vertex graph.
func BenchmarkFig2TriangleMeasurement(b *testing.B) {
	d, err := kron.FromPoints([]int{5, 3}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.Realize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := triangle.CountBoth(a); err != nil {
			b.Fatal(err)
		}
	}
}

// fig3Generator builds the reduced Figure 3 workload once: same code path as
// the paper's trillion-edge run (C = {81,256} intact, B shrunk to laptop
// scale), ~40M edges per generation.
func fig3Generator(b *testing.B) *gen.Generator {
	b.Helper()
	d, err := kron.FromPoints([]int{3, 4, 5, 81, 256}, kron.LoopNone)
	if err != nil {
		b.Fatal(err)
	}
	g, err := kron.NewGenerator(d, 3)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFig3EdgeRate measures the communication-free generator's edge
// rate at several worker counts; the reported edges/s metric is Figure 3's
// y-axis. Every edge is enumerated: a Func sink reads each one and folds
// count plus XOR checksum, as kronbench -fig 3 does.
func BenchmarkFig3EdgeRate(b *testing.B) {
	g := fig3Generator(b)
	maxW := runtime.GOMAXPROCS(0) * 2
	for w := 1; w <= maxW; w *= 2 {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			folds := make([]paddedCount, w)
			sink := kron.SinkFunc(func(p int, batch []kron.Edge) error {
				f := &folds[p]
				n, sum := f.n, f.sum
				for _, e := range batch {
					n++
					sum ^= e.Row*31 + e.Col
				}
				f.n, f.sum = n, sum
				return nil
			})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := kron.StreamTo(context.Background(), g, w, 0, sink); err != nil {
					b.Fatal(err)
				}
			}
			var edges int64
			for _, f := range folds {
				edges += f.n
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// paddedCount is a per-worker fold slot padded to a cache line so the
// stream benchmarks measure generation, not false sharing.
type paddedCount struct {
	n, sum int64
	_      [48]byte
}

// BenchmarkStreamFuncFig3 measures the Func sink path on the Figure-3
// workload: each run is expanded into a reused batch and the callback fires
// once per run, without reading the edges.
func BenchmarkStreamFuncFig3(b *testing.B) {
	g := fig3Generator(b)
	np := runtime.GOMAXPROCS(0)
	counts := make([]paddedCount, np)
	var edges int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := kron.StreamTo(context.Background(), g, np, 0, kron.SinkFunc(func(p int, batch []kron.Edge) error {
			counts[p].n += int64(len(batch))
			return nil
		}))
		if err != nil {
			b.Fatal(err)
		}
		edges += g.NumEdges()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkFig4TrillionDesign measures computing every exact property of the
// trillion-edge hub-loop graph (Figure 4's predicted curve).
func BenchmarkFig4TrillionDesign(b *testing.B) {
	d, err := kron.FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Compute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Validation measures the full predicted-vs-measured pipeline
// (generate, measure degrees and triangles, compare) at reduced scale.
func BenchmarkFig4Validation(b *testing.B) {
	d, err := kron.FromPoints([]int{3, 4, 5, 9}, kron.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	np := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := kron.Validate(context.Background(), d, 2, np)
		if err != nil {
			b.Fatal(err)
		}
		if !r.ExactAgreement {
			b.Fatal("validation mismatch")
		}
	}
}

// BenchmarkDesignCompute measures computing every exact property of the
// quadrillion-edge designs of Figures 5 and 6 and of Figure 7's 10³⁰-edge
// design, the paper's "few minutes on a laptop" computation.
func BenchmarkDesignCompute(b *testing.B) {
	quadrillion := []int{3, 4, 5, 9, 16, 25, 81, 256, 625}
	for _, fig := range []struct {
		name   string
		points []int
		loop   kron.LoopMode
	}{
		{"fig5", quadrillion, kron.LoopNone},
		{"fig6", quadrillion, kron.LoopHub},
		{"fig7", []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}, kron.LoopLeaf},
	} {
		b.Run(fig.name, func(b *testing.B) {
			d, err := kron.FromPoints(fig.points, fig.loop)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := d.Compute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRMATGenerate measures the baseline Graph500 R-MAT sampler the
// paper contrasts with, at the worker count of the Figure 3 sweep.
func BenchmarkRMATGenerate(b *testing.B) {
	for _, scale := range []int{14, 16, 18} {
		p := rmat.Graph500(scale, 16, 42)
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			np := runtime.GOMAXPROCS(0)
			var edges int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sample, err := rmat.Generate(p, np)
				if err != nil {
					b.Fatal(err)
				}
				edges += int64(len(sample))
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkAblationSplitPoint compares generation cost across B/C split
// choices — the design decision Section V leaves to the user (B carries the
// parallelism, C the per-triple fan-out).
func BenchmarkAblationSplitPoint(b *testing.B) {
	points := []int{3, 4, 5, 9, 16}
	for nb := 1; nb < len(points); nb++ {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			d, err := kron.FromPoints(points, kron.LoopNone)
			if err != nil {
				b.Fatal(err)
			}
			g, err := kron.NewGenerator(d, nb)
			if err != nil {
				b.Fatal(err)
			}
			np := runtime.GOMAXPROCS(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.CountEdges(context.Background(), np); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStreamVsMaterialize compares the streaming and
// materializing generation paths on the same design.
func BenchmarkAblationStreamVsMaterialize(b *testing.B) {
	d, err := kron.FromPoints([]int{3, 4, 5, 9}, kron.LoopNone)
	if err != nil {
		b.Fatal(err)
	}
	g, err := kron.NewGenerator(d, 2)
	if err != nil {
		b.Fatal(err)
	}
	np := runtime.GOMAXPROCS(0)
	b.Run("stream-count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := g.CountEdges(context.Background(), np); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Materialize(context.Background(), np); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDegreeDistributionDecetta isolates the most expensive design-side
// computation: combining 15 factor distributions with big-integer degrees.
func BenchmarkDegreeDistributionDecetta(b *testing.B) {
	d, err := kron.FromPoints(
		[]int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641},
		kron.LoopLeaf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.DegreeDistribution(); err != nil {
			b.Fatal(err)
		}
	}
}
