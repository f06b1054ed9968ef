// Package rmat implements the Graph500-style stochastic Kronecker (R-MAT)
// generator the paper uses as its point of contrast. R-MAT samples each edge
// by recursive quadrant descent with probabilities (a, b, c, d); a graph's
// exact properties — unique edge count, degree distribution, empty vertices,
// self-loops — are only knowable after generation, which is precisely the
// trial-and-error workflow the paper's design-first approach eliminates.
package rmat

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
)

// Params are the R-MAT generator inputs: 2^Scale vertices,
// EdgeFactor·2^Scale sampled edges, and quadrant probabilities summing to 1.
// Graph500's reference values are a=0.57, b=0.19, c=0.19, d=0.05.
type Params struct {
	Scale      int
	EdgeFactor int
	A, B, C, D float64
	Seed       int64
}

// Graph500 returns the benchmark's reference parameters at the given scale.
func Graph500(scale, edgeFactor int, seed int64) Params {
	return Params{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Scale < 1 || p.Scale > 40 {
		return fmt.Errorf("rmat: scale %d outside [1, 40]", p.Scale)
	}
	if p.EdgeFactor < 1 {
		return fmt.Errorf("rmat: edge factor %d < 1", p.EdgeFactor)
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("rmat: probabilities sum to %v, want 1", sum)
	}
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 {
		return fmt.Errorf("rmat: negative probability")
	}
	return nil
}

// NumVertices returns 2^Scale, the vertex-ID space (many IDs may end up with
// no edges — one of the artifacts the paper's generator avoids).
func (p Params) NumVertices() int64 { return 1 << uint(p.Scale) }

// NumSampledEdges returns the number of edge samples drawn (duplicates and
// self-loops included).
func (p Params) NumSampledEdges() int64 { return int64(p.EdgeFactor) << uint(p.Scale) }

// Edge is one sampled directed edge.
type Edge struct {
	Src, Dst int64
}

// sampleEdge draws one edge by Scale levels of quadrant descent.
func sampleEdge(p Params, rng *rand.Rand) Edge {
	var src, dst int64
	ab := p.A + p.B
	abc := p.A + p.B + p.C
	for level := 0; level < p.Scale; level++ {
		r := rng.Float64()
		var right, down int64
		switch {
		case r < p.A:
			// top-left
		case r < ab:
			right = 1
		case r < abc:
			down = 1
		default:
			right, down = 1, 1
		}
		src = src<<1 | down
		dst = dst<<1 | right
	}
	return Edge{Src: src, Dst: dst}
}

// Generate samples all edges with np parallel workers, each using an
// independent deterministic PRNG stream derived from Seed, and returns them
// in worker order. The output is reproducible for a given (Params, np).
func Generate(p Params, np int) ([]Edge, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	total := p.NumSampledEdges()
	if total > 1<<28 {
		return nil, fmt.Errorf("rmat: %d edges exceed the 2^28-edge limit of one materialized sample", total)
	}
	parts, err := parallel.Partition(int(total), np)
	if err != nil {
		return nil, err
	}
	edges := make([]Edge, total)
	err = parallel.Run(np, func(w int) error {
		rng := rand.New(rand.NewSource(p.Seed + int64(w)*0x7F4A7C15F39CC061))
		for i := parts[w].Lo; i < parts[w].Hi; i++ {
			edges[i] = sampleEdge(p, rng)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return edges, nil
}

// Measured summarizes the post-hoc properties of a sampled edge list — the
// quantities an R-MAT user can only learn by generating and inspecting.
type Measured struct {
	// UniqueEdges counts distinct (src, dst) pairs excluding self-loops.
	UniqueEdges int64
	// SelfLoops counts sampled edges with src == dst.
	SelfLoops int64
	// DuplicateSamples counts samples beyond the first for their pair.
	DuplicateSamples int64
	// NonEmptyVertices counts vertex IDs with at least one incident edge.
	NonEmptyVertices int64
	// EmptyVertices counts IDs in [0, 2^scale) with no incident edge —
	// the artifact that forces reindexing before property computation.
	EmptyVertices int64
	// DegreeHist maps out+in structural degree to vertex count over the
	// deduplicated, loop-free graph.
	DegreeHist map[int64]int64
	// MaxDegree is the largest structural degree.
	MaxDegree int64
}

// Measure computes the post-generation properties of an edge sample over the
// vertex-ID space [0, n).
func Measure(edges []Edge, n int64) Measured {
	m := Measured{DegreeHist: make(map[int64]int64)}
	seen := make(map[[2]int64]struct{}, len(edges))
	adjacent := make(map[int64]map[int64]struct{})
	touch := func(a, b int64) {
		s := adjacent[a]
		if s == nil {
			s = make(map[int64]struct{})
			adjacent[a] = s
		}
		s[b] = struct{}{}
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			m.SelfLoops++
			continue
		}
		k := [2]int64{e.Src, e.Dst}
		if _, dup := seen[k]; dup {
			m.DuplicateSamples++
			continue
		}
		seen[k] = struct{}{}
		m.UniqueEdges++
		touch(e.Src, e.Dst)
		touch(e.Dst, e.Src)
	}
	m.NonEmptyVertices = int64(len(adjacent))
	m.EmptyVertices = n - m.NonEmptyVertices
	for _, nbrs := range adjacent {
		d := int64(len(nbrs))
		m.DegreeHist[d]++
		if d > m.MaxDegree {
			m.MaxDegree = d
		}
	}
	return m
}
