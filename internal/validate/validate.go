// Package validate is the paper's "validation" pillar: generate a designed
// graph in parallel, measure its properties from the realized edges alone,
// and confirm exact agreement with the design-time predictions (the
// predicted-vs-measured comparison of Figure 4).
//
// The measurement engine is streaming and communication-free, mirroring the
// generator it checks. Edges are never collected into a global triple slice
// and never comparison-sorted. Instead, the engine rides gen.StreamTo
// twice:
//
//   - Pass 1 (measure in flight): each worker tallies its own edge count
//     and per-row degree counts over its contiguous B-column band while the
//     edges are generated. Merging the bands yields the measured edge
//     total, vertex count, and exact degree distribution — before a single
//     edge is stored.
//   - Pass 2 (build CSR in parallel): the same tallies, prefix-summed into
//     per-worker write cursors, let every worker scatter its band straight
//     into the final CSR arrays with no locks and no sort (the generator's
//     band-order guarantee makes each row arrive column-sorted; see
//     gen.StreamTo and sparse.CSRBuilder).
//
// Triangles are then counted on the CSR by the same worker pool, partitioned
// over weight-balanced entry bands (triangle.CountBothCSR). Peak memory is
// the CSR itself plus the O(workers·vertices) tally tables — there is no
// materialized COO, no Dedupe clone, and no reflection sort anywhere on the
// path, which is what lifts MaxRealizableEdges 8× over the materialized
// engine.
package validate

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strings"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/triangle"
)

// Stage names the validation passes report under in the process-default
// stage registry (kronserve renders them as kronserve_stage_*_total{stage=...}
// when validation runs in-server), so the per-pass batch/edge/busy totals
// behind a fig4 scaling run are readable off /metrics.
const (
	stageTally   = "validate_tally"
	stageScatter = "validate_scatter"
)

// Report compares predicted and measured properties of one design.
type Report struct {
	Design *core.Design
	// Workers is the processor count used for generation.
	Workers int

	PredictedVertices  *big.Int
	PredictedEdges     *big.Int
	PredictedTriangles *big.Int
	PredictedDegrees   *bigdeg.Dist

	MeasuredVertices  int64 // vertices with ≥1 incident edge
	MeasuredEdges     int64
	MeasuredTriangles int64
	MeasuredDegrees   *bigdeg.Dist

	// ExactAgreement is true when every measured property equals its
	// prediction — the paper's headline validation result.
	ExactAgreement bool
	// Mismatches lists any disagreements found.
	Mismatches []string
}

// MaxRealizableEdges caps the designs Run will realize in memory; larger
// designs must be validated through the design-side identities alone. The
// bound is set by the CSR footprint (16 bytes per stored entry) rather than
// a globally sorted triple pipeline, which is why it sits 8× above the
// materialized engine's historical 2^27 cap.
const MaxRealizableEdges = 1 << 30

// maxRealizableVertices bounds the row space: the engine keeps one int32
// degree tally per vertex per worker plus the CSR row pointers. Star-product
// designs have no isolated vertices, so vertices ≤ 2·edges keeps any design
// under the edge cap under this bound too; it exists to fail loudly rather
// than allocate absurdly on a degenerate input.
const maxRealizableVertices = 1 << 31

// Run generates the design with np workers via the split generator (split
// after nb factors), measures everything from the streamed edges, and
// compares against the design's predictions. Cancellation is cooperative:
// generation passes stop within one run and triangle counting within one
// band stride of ctx cancelling, returning ctx's error.
func Run(ctx context.Context, d *core.Design, nb, np int) (*Report, error) {
	pred, g, r, err := prepare(d, nb, np)
	if err != nil {
		return nil, err
	}
	n := int(pred.Vertices.Int64())

	builder, err := sparse.NewCSRBuilder[int64](n, n, np)
	if err != nil {
		return nil, err
	}
	// Pass 1 — measure in flight: per-worker degree tallies and edge
	// counts, no edge stored. Each worker touches only its own tally row,
	// so the pass shares nothing, like the generator underneath it. Both
	// passes are pipeline sinks over the same StreamTo engine every other
	// stream consumer rides — the measurement is just another fold.
	if err := g.StreamTo(ctx, np, 0, pipeline.Instrument(obs.Stages.Stage(stageTally), tallySink{builder})); err != nil {
		return nil, err
	}
	if err := builder.Finalize(); err != nil {
		return nil, err
	}

	// The band merge: edges, vertices, and the exact degree distribution
	// all fall out of the merged row pointers before any edge is placed.
	r.MeasuredEdges = int64(builder.NNZ())
	hist, err := sparse.DegreeHistogramCSR(builder.RowPtr(), np)
	if err != nil {
		return nil, err
	}
	md := bigdeg.New()
	var touched int64
	for deg, cnt := range hist {
		md.AddCount(big.NewInt(deg), big.NewInt(cnt))
		touched += cnt
	}
	r.MeasuredDegrees = md
	r.MeasuredVertices = touched

	// Pass 2 — scatter the regenerated stream into the CSR. The generator
	// is deterministic per worker, so each worker replays exactly the band
	// it counted.
	if err := g.StreamTo(ctx, np, 0, pipeline.Instrument(obs.Stages.Stage(stageScatter), scatterSink{builder})); err != nil {
		return nil, err
	}
	a, err := builder.Build()
	if err != nil {
		return nil, err
	}

	tri, err := triangle.CountBothCSR(ctx, a, np)
	if err != nil {
		return nil, err
	}
	r.MeasuredTriangles = tri

	r.compare()
	return r, nil
}

// RunMaterialized is the pre-streaming reference engine: it collects every
// generated edge into one global COO, canonicalizes it with a comparison
// sort, and measures from the materialized matrix. It exists as the oracle
// for the streaming engine's parity tests and as the baseline the fig4
// validation-throughput benchmark is measured against; it still enforces
// the historical 2^27-edge bound of the global-sort pipeline.
func RunMaterialized(ctx context.Context, d *core.Design, nb, np int) (*Report, error) {
	pred, g, r, err := prepare(d, nb, np)
	if err != nil {
		return nil, err
	}
	if pred.Edges.Int64() > 1<<27 {
		return nil, fmt.Errorf("validate: design too large for the materialized engine (%s edges)", pred.Edges)
	}
	n := pred.Vertices.Int64()

	buffers := make([][]sparse.Triple[int64], np)
	err = g.StreamTo(ctx, np, 0, pipeline.Func(func(w int, batch []gen.Edge) error {
		buf := buffers[w]
		for _, e := range batch {
			buf = append(buf, sparse.Triple[int64]{Row: int(e.Row), Col: int(e.Col), Val: e.Val})
		}
		buffers[w] = buf
		return nil
	}))
	if err != nil {
		return nil, err
	}
	// The stream checks ctx per run, but everything after it — the global
	// concatenation, Dedupe's sort, and both serial triangle counters — used
	// to run uninterruptible, so a SIGINT during the sort phase hung until
	// the whole materialized pipeline finished. One check at the seam keeps
	// the engine's cancellation latency bounded by the stream's last run.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tr []sparse.Triple[int64]
	for _, b := range buffers {
		tr = append(tr, b...)
	}
	a, err := sparse.NewCOO(int(n), int(n), tr)
	if err != nil {
		return nil, err
	}

	sr := semiring.PlusTimesInt64()
	r.MeasuredEdges = int64(a.Dedupe(sr).NNZ())
	hist := sparse.DegreeHistogram(a, sr)
	md := bigdeg.New()
	var touched int64
	for deg, cnt := range hist {
		md.AddCount(big.NewInt(int64(deg)), big.NewInt(int64(cnt)))
		touched += int64(cnt)
	}
	r.MeasuredDegrees = md
	r.MeasuredVertices = touched
	tri, err := triangle.CountBoth(a)
	if err != nil {
		return nil, err
	}
	r.MeasuredTriangles = tri

	r.compare()
	return r, nil
}

// tallySink is the pass-1 measurement fold as a pipeline sink: each worker
// bumps its private per-row tally as its band streams past, storing nothing.
type tallySink struct {
	b *sparse.CSRBuilder[int64]
}

func (s tallySink) WriteRun(w int, r pipeline.Run) error {
	for _, e := range r.Local() {
		s.b.Count(w, int(r.RowBase+e.Row))
	}
	return nil
}

func (s tallySink) Close() error { return nil }

// scatterSink is the pass-2 placement fold as a pipeline sink: each worker
// scatters its regenerated band straight into the final CSR arrays through
// its prefix-summed cursors.
type scatterSink struct {
	b *sparse.CSRBuilder[int64]
}

func (s scatterSink) WriteRun(w int, r pipeline.Run) error {
	for _, e := range r.Local() {
		s.b.Place(w, int(r.RowBase+e.Row), int(r.ColBase+e.Col), e.Val)
	}
	return nil
}

func (s scatterSink) Close() error { return nil }

// checkRealizable rejects designs the measurement engine cannot hold: edge
// counts past the CSR cap, and vertex counts past either the engine's own
// bound or the platform's int range. The int check matters on 32-bit
// platforms, where maxRealizableVertices (2^31) exceeds math.MaxInt (2^31−1):
// without it the vertex count would be cast through int and silently wrap,
// building a wrong-shaped CSR instead of failing loudly.
func checkRealizable(pred *core.Properties) error {
	if !pred.Vertices.IsInt64() || !pred.Edges.IsInt64() ||
		pred.Edges.Int64() > MaxRealizableEdges ||
		pred.Vertices.Int64() > maxRealizableVertices {
		return fmt.Errorf("validate: design too large to realize (%s vertices, %s edges)",
			pred.Vertices, pred.Edges)
	}
	if v := pred.Vertices.Int64(); v > math.MaxInt {
		return fmt.Errorf("validate: design has %d vertices, over this platform's %d-bit int range; validate on a 64-bit host",
			v, 32<<(^uint(0)>>63))
	}
	return nil
}

// prepare computes the predictions, checks realizability, builds the split
// generator, and seeds a report with the predicted side.
func prepare(d *core.Design, nb, np int) (*core.Properties, *gen.Generator, *Report, error) {
	pred, err := d.Compute()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := checkRealizable(pred); err != nil {
		return nil, nil, nil, err
	}
	g, err := gen.New(d, nb)
	if err != nil {
		return nil, nil, nil, err
	}
	r := &Report{
		Design:             d,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
	}
	return pred, g, r, nil
}

func (r *Report) compare() {
	check := func(name string, predicted *big.Int, measured int64) {
		if predicted.Cmp(big.NewInt(measured)) != 0 {
			r.Mismatches = append(r.Mismatches,
				fmt.Sprintf("%s: predicted %s, measured %d", name, predicted, measured))
		}
	}
	check("vertices", r.PredictedVertices, r.MeasuredVertices)
	check("edges", r.PredictedEdges, r.MeasuredEdges)
	check("triangles", r.PredictedTriangles, r.MeasuredTriangles)
	if !bigdeg.Equal(r.PredictedDegrees, r.MeasuredDegrees) {
		r.Mismatches = append(r.Mismatches, "degree distribution differs")
	}
	r.ExactAgreement = len(r.Mismatches) == 0
}

// String renders the report in the predicted-vs-measured style of Figure 4.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design: %v  workers: %d\n", r.Design, r.Workers)
	fmt.Fprintf(&b, "%-12s %24s %24s\n", "property", "predicted", "measured")
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "vertices", r.PredictedVertices, r.MeasuredVertices)
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "edges", r.PredictedEdges, r.MeasuredEdges)
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "triangles", r.PredictedTriangles, r.MeasuredTriangles)
	fmt.Fprintf(&b, "degree distribution: predicted %d points, measured %d points\n",
		r.PredictedDegrees.Len(), r.MeasuredDegrees.Len())
	if r.ExactAgreement {
		b.WriteString("RESULT: exact agreement\n")
	} else {
		fmt.Fprintf(&b, "RESULT: %d mismatches\n", len(r.Mismatches))
		for _, m := range r.Mismatches {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	return b.String()
}
