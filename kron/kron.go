// Package kron is the public API of the extreme-scale power-law Kronecker
// graph library, a from-scratch Go reproduction of Kepner et al., "Design,
// Generation, and Validation of Extreme Scale Power-Law Graphs" (IPDPS 2018).
//
// The workflow has three stages:
//
//  1. Design: describe a graph as a Kronecker product of star graphs and
//     compute its exact properties — vertices, edges, full degree
//     distribution, triangles — with arbitrary precision, before (or
//     instead of) ever generating it.
//
//     d, _ := kron.FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, kron.LoopHub)
//     p, _ := d.Compute() // 11,177,649,600 vertices, 1.85e12 edges, ...
//
//  2. Generate: realize the designed graph in parallel with no
//     inter-worker communication; each worker owns an equal share of the
//     edges.
//
//     g, _ := kron.NewGenerator(d, 6)
//     kron.StreamTo(ctx, g, 8, 0, kron.SinkFunc(func(worker int, batch []kron.Edge) error { ... }))
//
//  3. Validate: measure a generated graph and confirm exact agreement with
//     the design.
//
//     r, _ := kron.Validate(ctx, d, 2, 8)
//     fmt.Println(r.ExactAgreement) // true
//
// An R-MAT (Graph500) stochastic generator is included as the baseline the
// paper contrasts with.
package kron

import (
	"context"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rmat"
	"repro/internal/star"
	"repro/internal/validate"
)

// LoopMode selects the self-loop placement on every constituent star.
type LoopMode = star.LoopMode

// Loop-placement modes (Section IV of the paper).
const (
	// LoopNone builds bipartite constituents: the product has 0 triangles.
	LoopNone = star.LoopNone
	// LoopHub loops each star's hub: the product has many triangles.
	LoopHub = star.LoopHub
	// LoopLeaf loops one point of each star: the product has few triangles.
	LoopLeaf = star.LoopLeaf
)

// ParseLoopMode converts "none", "hub", or "leaf" to a LoopMode.
func ParseLoopMode(s string) (LoopMode, error) { return star.ParseLoopMode(s) }

// StarSpec describes one constituent star graph (m̂ points plus a hub).
type StarSpec = star.Spec

// Design is a Kronecker power-law graph design with exact, closed-form
// properties. See internal/core for the full method set: NumVertices,
// NumEdges, Triangles, DegreeDistribution, Alpha, Compute, Realize, Split.
type Design = core.Design

// Properties bundles a design's exact property set.
type Properties = core.Properties

// NewDesign builds a design from explicit star specs.
func NewDesign(factors []StarSpec) (*Design, error) { return core.NewDesign(factors) }

// FromPoints builds a design from m̂ values and a loop mode — the paper's
// "star graphs with m̂ = {...}" notation.
func FromPoints(points []int, loop LoopMode) (*Design, error) {
	return core.FromPoints(points, loop)
}

// DegreeDist is an exact arbitrary-precision degree distribution.
type DegreeDist = bigdeg.Dist

// Generator is the communication-free parallel generator of Section V.
type Generator = gen.Generator

// Edge is one generated adjacency entry in global coordinates.
type Edge = gen.Edge

// DefaultStreamBatchSize is the run length StreamTo uses when the caller
// passes batchSize <= 0.
const DefaultStreamBatchSize = gen.DefaultBatchSize

// NewGenerator splits the design after its first nb factors into A = B ⊗ C
// and realizes both sides, ready to generate at any worker count. StreamTo
// drives it into any Sink: every B triple's edges arrive as runs over one
// shared, immutable C block, cut at most DefaultStreamBatchSize edges long
// by default.
func NewGenerator(d *Design, nb int) (*Generator, error) { return gen.New(d, nb) }

// DefaultMaxCNNZ is the default bound on the C side's stored entries when a
// split point is chosen automatically: C must "fit in the memory of any one
// processor" (Section V); 2^20 entries keeps the per-worker fan-out table
// comfortably in cache-friendly territory while leaving B with the bulk of
// the distributable triples.
const DefaultMaxCNNZ = 1 << 20

// BalancedSplitPoint returns the smallest split index nb whose C-side suffix
// holds at most maxCNNZ stored entries — the automatic split the job service
// uses when a request does not pin nb. Pass maxCNNZ <= 0 for DefaultMaxCNNZ.
func BalancedSplitPoint(d *Design, maxCNNZ int64) (int, error) {
	if maxCNNZ <= 0 {
		maxCNNZ = DefaultMaxCNNZ
	}
	return d.BalancedSplitPoint(maxCNNZ)
}

// ValidationReport compares a design's predictions with measurements taken
// from its generated edges.
type ValidationReport = validate.Report

// MaxValidationEdges is the largest edge count Validate will realize in
// memory; bigger designs are validated through the design-side closed forms
// alone. Services should check a design against this bound before accepting
// a validation request. The streaming measurement engine bounds it by the
// CSR footprint (no globally sorted triple pipeline), so it sits 8× above
// the materialized engine's historical 2^27 cap.
const MaxValidationEdges = validate.MaxRealizableEdges

// Validate generates the design (split after nb factors) with np workers,
// measures vertices, edges, degree distribution, and triangles from the
// realized edges, and reports whether everything agrees exactly. The
// measurement is streaming: per-worker in-flight tallies merge into the
// degree distribution, and triangles are counted on a CSR the workers build
// in parallel — edges are never collected into one sorted list. Cancellation
// is cooperative: generation stops within one batch and triangle counting
// within one band stride of ctx cancelling. Services should pass their
// request context so abandoned validations release their cores.
func Validate(ctx context.Context, d *Design, nb, np int) (*ValidationReport, error) {
	return validate.Run(ctx, d, nb, np)
}

// RMATParams parameterizes the baseline Graph500 stochastic Kronecker
// generator.
type RMATParams = rmat.Params

// RMATEdge is one sampled R-MAT edge.
type RMATEdge = rmat.Edge

// RMATMeasured summarizes the post-hoc properties of an R-MAT sample.
type RMATMeasured = rmat.Measured

// Graph500Params returns the Graph500 reference R-MAT parameters
// (a=0.57, b=0.19, c=0.19, d=0.05) at the given scale.
func Graph500Params(scale, edgeFactor int, seed int64) RMATParams {
	return rmat.Graph500(scale, edgeFactor, seed)
}

// RMATGenerate samples an R-MAT edge list with np parallel workers.
func RMATGenerate(p RMATParams, np int) ([]RMATEdge, error) { return rmat.Generate(p, np) }

// RMATMeasure computes the post-generation properties of an R-MAT sample.
func RMATMeasure(edges []RMATEdge, n int64) RMATMeasured { return rmat.Measure(edges, n) }
