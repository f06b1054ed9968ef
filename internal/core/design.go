// Package core implements the paper's primary contribution: design-before-
// generation of extreme-scale power-law Kronecker graphs. A Design is a list
// of star-graph constituents; every headline property of the full graph —
// vertex count, edge count, complete degree distribution, triangle count —
// is computed exactly from the constituents with arbitrary precision, per
// Section IV, without ever forming the product.
package core

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/bigdeg"
	"repro/internal/star"
)

// Design is a Kronecker power-law graph design: the adjacency matrix is
// A = ⊗ₖ Aₖ over the constituent stars, with the single self-loop produced
// by LoopHub/LoopLeaf constituents removed from the final product
// (Section IV-B/C). All constituents share one loop mode, as in the paper.
type Design struct {
	factors []star.Spec
	loop    star.LoopMode
}

// NewDesign validates the constituent list and returns a Design. All factors
// must carry the same loop mode; the paper places a loop on "every
// constituent graph" or on none.
func NewDesign(factors []star.Spec) (*Design, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: design needs at least one constituent")
	}
	loop := factors[0].Loop
	for i, f := range factors {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("core: factor %d: %w", i, err)
		}
		if f.Loop != loop {
			return nil, fmt.Errorf("core: factor %d loop mode %v differs from %v; designs use a uniform mode",
				i, f.Loop, loop)
		}
	}
	cp := make([]star.Spec, len(factors))
	copy(cp, factors)
	return &Design{factors: cp, loop: loop}, nil
}

// FromPoints builds a Design from m̂ values and a loop mode, the notation the
// paper's Section VI uses ("star graphs with m̂ = {3,4,5,9,16,25}").
func FromPoints(points []int, loop star.LoopMode) (*Design, error) {
	return NewDesign(star.Specs(points, loop))
}

// Factors returns a copy of the constituent list.
func (d *Design) Factors() []star.Spec {
	cp := make([]star.Spec, len(d.factors))
	copy(cp, d.factors)
	return cp
}

// Loop returns the design's uniform loop mode.
func (d *Design) Loop() star.LoopMode { return d.loop }

// NumFactors returns Nₖ, the number of constituents.
func (d *Design) NumFactors() int { return len(d.factors) }

// NumVertices returns mA = ∏ₖ mAₖ exactly.
func (d *Design) NumVertices() *big.Int {
	acc := big.NewInt(1)
	var m big.Int
	for _, f := range d.factors {
		acc.Mul(acc, m.SetInt64(int64(f.Vertices())))
	}
	return acc
}

// NNZWithLoops returns ∏ₖ nnz(Aₖ), the stored-entry count of the raw product
// before the final self-loop (if any) is removed.
func (d *Design) NNZWithLoops() *big.Int {
	acc := big.NewInt(1)
	var m big.Int
	for _, f := range d.factors {
		acc.Mul(acc, m.SetInt64(f.NNZ()))
	}
	return acc
}

// NumEdges returns the exact edge count of the final graph: nnz(A) for plain
// designs and nnz(A) − 1 for looped designs (one self-loop removed), per
// Sections IV-B and IV-C. Edges are counted as stored adjacency entries
// (each undirected edge contributes 2), matching the paper's convention.
func (d *Design) NumEdges() *big.Int {
	e := d.NNZWithLoops()
	if d.loop != star.LoopNone {
		e.Sub(e, big.NewInt(1))
	}
	return e
}

// loopVertexDegree returns the pre-removal degree of the vertex carrying the
// final self-loop: ∏(m̂ₖ+1) = mA for hub loops (the hub of hubs is connected
// to everything including itself) and 2^Nₖ for leaf loops (degree 2 in every
// factor).
func (d *Design) loopVertexDegree() *big.Int {
	switch d.loop {
	case star.LoopHub:
		return d.NumVertices()
	case star.LoopLeaf:
		return new(big.Int).Lsh(big.NewInt(1), uint(len(d.factors)))
	default:
		return nil
	}
}

// DegreeDistribution returns the exact degree distribution of the final
// graph: the Kronecker combination of the factor distributions, with the
// paper's adjustment moving the loop-carrying vertex from degree dℓ to
// dℓ − 1 after self-loop removal.
func (d *Design) DegreeDistribution() (*bigdeg.Dist, error) {
	parts := make([]*bigdeg.Dist, len(d.factors))
	for i, f := range d.factors {
		parts[i] = bigdeg.FromInt64Map(f.DegreeDistribution())
	}
	dist, err := bigdeg.KronN(parts...)
	if err != nil {
		return nil, err
	}
	if dl := d.loopVertexDegree(); dl != nil {
		one := big.NewInt(1)
		dist.AddCount(dl, big.NewInt(-1))
		dist.AddCount(new(big.Int).Sub(dl, one), one)
	}
	return dist, nil
}

// TriangleTraceProduct returns ∏ₖ 1ᵀ(AₖAₖ ⊗ Aₖ)1 = ∏ₖ trace(Aₖ³), the raw
// closed-3-walk count of the product before loop removal.
func (d *Design) TriangleTraceProduct() *big.Int {
	acc := big.NewInt(1)
	var m big.Int
	for _, f := range d.factors {
		acc.Mul(acc, m.SetInt64(f.TraceA3()))
	}
	return acc
}

// Triangles returns the exact triangle count of the final graph:
//
//	none: (1/6)∏trace(Aₖ³)  (= 0: bipartite factors)
//	hub:  (1/6)∏trace(Aₖ³) − mA/2 + 1/3
//	leaf: (1/6)∏trace(Aₖ³) − 2^Nₖ/2 + 1/3
//
// The corrections account for the removed self-loop (Sections IV-B, IV-C).
// The result is checked for integrality — a non-integer value would mean the
// closed forms were misapplied — and an error is returned in that case.
func (d *Design) Triangles() (*big.Int, error) {
	t := new(big.Rat).SetFrac(d.TriangleTraceProduct(), big.NewInt(6))
	if dl := d.loopVertexDegree(); dl != nil {
		t.Sub(t, new(big.Rat).SetFrac(dl, big.NewInt(2)))
		t.Add(t, big.NewRat(1, 3))
	}
	if !t.IsInt() {
		return nil, fmt.Errorf("core: triangle formula yielded non-integer %s", t)
	}
	return new(big.Int).Set(t.Num()), nil
}

// PredictedComponents returns the number of connected components of the
// final graph, known at design time from Weichsel's theorem: the tensor
// product of connected graphs is connected iff at most one factor is
// bipartite, and each additional connected bipartite factor doubles the
// component count. Stars are connected; plain stars are bipartite while
// looped stars are not (their self-loop is an odd closed walk). Hence:
//
//	none: 2^(Nₖ−1) components (Figure 1's "two bipartite sub-graphs" for Nₖ=2)
//	hub/leaf: 1 component
//
// Removing the product's single self-loop deletes no vertex and no
// inter-vertex edge, so the count is unaffected.
func (d *Design) PredictedComponents() *big.Int {
	if d.loop == star.LoopNone {
		return new(big.Int).Lsh(big.NewInt(1), uint(len(d.factors)-1))
	}
	return big.NewInt(1)
}

// MaxDegree returns the largest vertex degree of the final graph.
func (d *Design) MaxDegree() (*big.Int, error) {
	dist, err := d.DegreeDistribution()
	if err != nil {
		return nil, err
	}
	return dist.MaxDegree(), nil
}

// String summarizes the design, e.g. "kron[none m̂={3,4,5}]".
func (d *Design) String() string {
	pts := make([]string, len(d.factors))
	for i, f := range d.factors {
		pts[i] = fmt.Sprintf("%d", f.Points)
	}
	return fmt.Sprintf("kron[%s m̂={%s}]", d.loop, strings.Join(pts, ","))
}

// Properties bundles every design-time property for reporting.
type Properties struct {
	Vertices  *big.Int
	Edges     *big.Int
	Triangles *big.Int
	MaxDegree *big.Int
	Alpha     float64
	Degrees   *bigdeg.Dist
}

// Compute evaluates all properties at once.
func (d *Design) Compute() (*Properties, error) {
	dist, err := d.DegreeDistribution()
	if err != nil {
		return nil, err
	}
	tri, err := d.Triangles()
	if err != nil {
		return nil, err
	}
	alpha, err := dist.Alpha()
	if err != nil {
		return nil, err
	}
	return &Properties{
		Vertices:  d.NumVertices(),
		Edges:     d.NumEdges(),
		Triangles: tri,
		MaxDegree: dist.MaxDegree(),
		Alpha:     alpha,
		Degrees:   dist,
	}, nil
}

// Report renders the properties as a human-readable block.
func (p *Properties) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices:  %s\n", p.Vertices)
	fmt.Fprintf(&b, "edges:     %s\n", p.Edges)
	fmt.Fprintf(&b, "triangles: %s\n", p.Triangles)
	fmt.Fprintf(&b, "max degree: %s\n", p.MaxDegree)
	fmt.Fprintf(&b, "alpha:     %.6f\n", p.Alpha)
	fmt.Fprintf(&b, "distinct degrees: %d\n", p.Degrees.Len())
	return b.String()
}
