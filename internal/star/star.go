// Package star builds the star-graph constituent matrices of Section III and
// provides closed-form per-factor statistics (vertex count, nonzero count,
// degree distribution, closed-3-walk count) that the designer combines via
// Kronecker identities. Every closed form is cross-checked against the sparse
// substrate in the tests.
package star

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// LoopMode selects the self-loop placement of Section IV.
type LoopMode int

const (
	// LoopNone is a plain star: bipartite, so any Kronecker product of such
	// factors has zero triangles.
	LoopNone LoopMode = iota
	// LoopHub places a self-loop on the star's central vertex (Case 1,
	// "many triangles").
	LoopHub
	// LoopLeaf places a self-loop on one point vertex (Case 2,
	// "some triangles").
	LoopLeaf
)

// String returns the mnemonic used in CLI flags and reports.
func (m LoopMode) String() string {
	switch m {
	case LoopNone:
		return "none"
	case LoopHub:
		return "hub"
	case LoopLeaf:
		return "leaf"
	default:
		return fmt.Sprintf("LoopMode(%d)", int(m))
	}
}

// ParseLoopMode converts a mnemonic back to a LoopMode.
func ParseLoopMode(s string) (LoopMode, error) {
	switch s {
	case "none":
		return LoopNone, nil
	case "hub":
		return LoopHub, nil
	case "leaf":
		return LoopLeaf, nil
	}
	return 0, fmt.Errorf("star: unknown loop mode %q (want none, hub, or leaf)", s)
}

// Spec describes one constituent star graph: Points is m̂, the number of leaf
// vertices, so the star has m̂+1 vertices in total; Loop is the self-loop
// placement applied to every constituent per Section IV.
type Spec struct {
	Points int
	Loop   LoopMode
}

// Validate reports whether the spec is usable. Stars need at least two
// points so that factor degree values {1, m̂} are distinct; the paper's
// designs all use m̂ ≥ 3.
func (s Spec) Validate() error {
	if s.Points < 2 {
		return fmt.Errorf("star: m̂ = %d, want at least 2", s.Points)
	}
	switch s.Loop {
	case LoopNone, LoopHub, LoopLeaf:
		return nil
	default:
		return fmt.Errorf("star: invalid loop mode %d", int(s.Loop))
	}
}

// Vertices returns m = m̂ + 1, the factor's vertex count.
func (s Spec) Vertices() int { return s.Points + 1 }

// NNZ returns the number of stored adjacency entries: 2m̂ for the undirected
// star (each edge stored in both directions) plus 1 for a self-loop.
func (s Spec) NNZ() int64 {
	n := int64(2 * s.Points)
	if s.Loop != LoopNone {
		n++
	}
	return n
}

// DegreeDistribution returns the factor's exact degree distribution as a map
// from degree d to vertex count n(d), where degree is the structural nonzero
// count of the vertex's adjacency row (a self-loop contributes 1):
//
//	none: n(1) = m̂, n(m̂) = 1
//	hub:  n(1) = m̂, n(m̂+1) = 1
//	leaf: n(1) = m̂−1, n(2) = 1, n(m̂) = 1
func (s Spec) DegreeDistribution() map[int64]int64 {
	mh := int64(s.Points)
	dd := make(map[int64]int64, 3)
	switch s.Loop {
	case LoopHub:
		dd[1] += mh
		dd[mh+1]++
	case LoopLeaf:
		// Degrees may coincide (m̂ = 2 makes the hub and the looped leaf
		// both degree 2), so counts accumulate rather than overwrite.
		dd[1] += mh - 1
		dd[2]++
		dd[mh]++
	default:
		dd[1] += mh
		dd[mh]++
	}
	return dd
}

// TraceA3 returns tₖ = 1ᵀ(AₖAₖ ⊗ Aₖ)1 = trace(Aₖ³), the factor's closed-
// 3-walk count used by the triangle formula of Section IV-A:
//
//	none: 0 (bipartite)
//	hub:  3m̂ + 1
//	leaf: 4
func (s Spec) TraceA3() int64 {
	switch s.Loop {
	case LoopHub:
		return 3*int64(s.Points) + 1
	case LoopLeaf:
		return 4
	default:
		return 0
	}
}

// Adjacency realizes the constituent adjacency matrix Aₖ. Vertex 0 is the
// hub; vertices 1..m̂ are the points; a LoopLeaf self-loop is placed on the
// last point (vertex m̂), matching the paper's Aₖ(m,m) = 1 convention.
func (s Spec) Adjacency() *sparse.COO[int64] {
	m := s.Vertices()
	tr := make([]sparse.Triple[int64], 0, s.NNZ())
	for leaf := 1; leaf < m; leaf++ {
		tr = append(tr,
			sparse.Triple[int64]{Row: 0, Col: leaf, Val: 1},
			sparse.Triple[int64]{Row: leaf, Col: 0, Val: 1},
		)
	}
	switch s.Loop {
	case LoopHub:
		tr = append(tr, sparse.Triple[int64]{Row: 0, Col: 0, Val: 1})
	case LoopLeaf:
		tr = append(tr, sparse.Triple[int64]{Row: m - 1, Col: m - 1, Val: 1})
	}
	return sparse.MustCOO(m, m, tr)
}

// TraceA3Computed computes trace(Aₖ³) from the realized matrix via the
// sparse substrate; tests use it to validate the closed form in TraceA3.
func (s Spec) TraceA3Computed() (int64, error) {
	sr := semiring.PlusTimesInt64()
	a := s.Adjacency().ToCSR(sr)
	a3, err := sparse.MatPow(a, 3, sr)
	if err != nil {
		return 0, err
	}
	return sparse.TraceCSR(a3, sr), nil
}

// Specs builds a no-loop spec list from a slice of m̂ values, a convenience
// for the paper's "stars with m̂ = {...}" notation.
func Specs(points []int, loop LoopMode) []Spec {
	out := make([]Spec, len(points))
	for i, p := range points {
		out[i] = Spec{Points: p, Loop: loop}
	}
	return out
}

// String renders the spec as "star(m̂=5,loop=hub)".
func (s Spec) String() string {
	return fmt.Sprintf("star(m̂=%d,loop=%s)", s.Points, s.Loop)
}
