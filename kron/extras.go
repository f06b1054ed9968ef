package kron

import (
	"math/big"

	"repro/internal/analyze"
	"repro/internal/search"
	"repro/internal/sparse"
	"repro/internal/spectrum"
)

// --- Design search -------------------------------------------------------

// SearchOptions controls FindDesigns; see internal/search for field docs.
type SearchOptions = search.Options

// SearchResult is one design within tolerance of an edge target.
type SearchResult = search.Result

// FindDesigns returns designs whose exact edge counts land within the
// tolerance of target — the closed-form replacement for generate-and-measure
// parameter tuning.
func FindDesigns(target *big.Int, opt SearchOptions) ([]SearchResult, error) {
	return search.EdgeTarget(target, opt)
}

// --- Spectral properties -------------------------------------------------

// SpectralRadius returns the spectral radius of the design's raw Kronecker
// product (∏ per-factor radii); the final graph after self-loop removal
// differs by at most 1 (rank-1, norm-1 perturbation).
func SpectralRadius(d *Design) (float64, error) {
	return spectrum.DesignRadius(d.Factors())
}

// --- Structural analysis on realized graphs -------------------------------

// Graph is an analysis view over a realized symmetric adjacency matrix
// providing BFS, connected components and degrees.
type Graph = analyze.Graph

// Analyze realizes a design (feasible sizes only) and wraps it for
// structural analysis.
func Analyze(d *Design) (*Graph, error) {
	a, err := d.Realize()
	if err != nil {
		return nil, err
	}
	return analyze.NewGraph(a)
}

// AnalyzeMatrix wraps an existing adjacency matrix for structural analysis.
func AnalyzeMatrix(a *sparse.COO[int64]) (*Graph, error) {
	return analyze.NewGraph(a)
}
