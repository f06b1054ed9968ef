// Package validate is the paper's "validation" pillar: generate a designed
// graph in parallel, measure its properties from the realized edges alone,
// and confirm exact agreement with the design-time predictions (the
// predicted-vs-measured comparison of Figure 4).
//
// The measurement engine is streaming and communication-free, mirroring the
// generator it checks. Edges are never collected into a global triple slice
// and never comparison-sorted. RunShard measures one slice of a
// deterministic shard plan by riding gen.StreamShardTo twice:
//
//   - Pass 1 (measure in flight): each worker tallies its own edge count,
//     per-row degree counts and XOR checksum over its contiguous band of
//     the slice while the edges are generated — before a single edge is
//     stored.
//   - Pass 2 (build CSR in parallel): the same tallies, prefix-summed into
//     per-worker write cursors, let every worker scatter its band straight
//     into a CSR fragment with no locks and no sort (the generator's
//     band-order guarantee makes each row arrive column-sorted; see
//     gen.StreamTo and sparse.CSRBuilder).
//
// Merge checks a complete set of slices against the design's plan,
// concatenates their fragments, and measures the design-level properties.
// Run is the one-shard case: RunShard over the design's one-shard plan,
// then Merge, which takes the single fragment as it is. Every property is
// measured exactly, never estimated; RunMaterialized, which collects and
// sorts the edges instead, is the independent oracle the parity tests hold
// Run against.
//
// The CSR is a value-free pattern (sparse.CSR[struct{}], 8 bytes per
// entry); the scatter pass rejects any edge whose value is not 1. Edges,
// vertices and the exact degree distribution fall out of the merged row
// pointers. Triangles are then counted by the same worker pool on the
// pattern's degree-oriented half U (triangle.Orient, which also proves the
// pattern simple and symmetric, then Oriented.CountBoth). Peak memory is
// the pattern plus U (2 bytes per pattern entry) plus the
// O(workers·vertices) tally tables — there is no materialized COO, no
// Dedupe clone, and no reflection sort anywhere on the path, which is what
// lifts MaxRealizableEdges 8× over the materialized engine.
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
// behind a fig4 scaling run are readable off /metrics. The tally and scatter
// stages count runs and edges; the triangle stage records one batch per
// worker for each of its three passes (orient, intersect, mark), with the
// oriented-pattern entries that worker handled as its edges.
const (
	stageTally     = "validate_tally"
	stageScatter   = "validate_scatter"
	stageTriangles = "validate_triangles"
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
// bound is set by the pattern CSR (8 bytes per stored entry) plus the
// oriented pattern the triangle counters build from it (2 bytes per stored
// entry), rather than by a globally sorted triple pipeline, which is why it
// sits 8× above the materialized engine's historical 2^27 cap.
const MaxRealizableEdges = 1 << 30

// maxRealizableVertices bounds the row space: the engine keeps one int32
// degree tally per vertex per worker plus the CSR row pointers. Star-product
// designs have no isolated vertices, so vertices ≤ 2·edges keeps any design
// under the edge cap under this bound too; it exists to fail loudly rather
// than allocate absurdly on a degenerate input.
const maxRealizableVertices = 1 << 31

// Run generates the design with np workers via the split generator (split
// after nb factors), measures everything from the streamed edges, and
// compares against the design's predictions. It is Merge over the one
// RunShard report of the design's one-shard plan. Realizability is checked
// before the plan is built, so an oversized design fails with the
// realizability error, not a planning one. Cancellation is cooperative:
// generation passes stop within one run and triangle counting within one
// band stride of ctx cancelling, returning ctx's error.
func Run(ctx context.Context, d *core.Design, nb, np int) (*Report, error) {
	if err := checkRealizable(d.NumVertices(), d.NumEdges()); err != nil {
		return nil, err
	}
	plan, err := gen.PlanDesignShards(d, nb, 1)
	if err != nil {
		return nil, err
	}
	s, err := RunShard(ctx, d, nb, np, plan[0])
	if err != nil {
		return nil, err
	}
	return Merge(ctx, []*ShardReport{s}, np)
}

// buildPattern runs the engine's two measurement passes over stream and
// returns the value-free pattern CSR they build on the n×n vertex space.
//
//   - Pass 1 — measure in flight: per-worker degree tallies, no edge
//     stored. Each worker touches only its own tally row, so the pass
//     shares nothing, like the generator underneath it. extra sinks (the
//     shard engine's checksum fold) ride the same runs.
//   - Pass 2 — scatter the regenerated stream into the CSR. The generator
//     is deterministic per worker, so each worker replays exactly the band
//     it counted, and the builder proves it did.
//
// Both passes are pipeline sinks over the same stream every other consumer
// rides — the measurement is just another fold.
func buildPattern(n, np int, stream func(pipeline.Sink) error, extra ...pipeline.Sink) (*sparse.CSR[struct{}], error) {
	b, err := sparse.NewCSRBuilder[struct{}](n, n, np)
	if err != nil {
		return nil, err
	}
	tally := pipeline.Tee(append([]pipeline.Sink{tallySink{b}}, extra...)...)
	if err := stream(pipeline.Instrument(obs.Stages.Stage(stageTally), tally)); err != nil {
		return nil, err
	}
	if err := b.Finalize(); err != nil {
		return nil, err
	}
	if err := stream(pipeline.Instrument(obs.Stages.Stage(stageScatter), scatterSink{b})); err != nil {
		return nil, err
	}
	return b.Build()
}

// measure fills the report's measured side from the pattern a: edges,
// vertices and the exact degree distribution fall out of the row pointers,
// and triangles are counted on the degree-oriented pattern.
func (r *Report) measure(ctx context.Context, a *sparse.CSR[struct{}], np int) error {
	hist, err := sparse.DegreeHistogramCSR(a.RowPtr, np)
	if err != nil {
		return err
	}
	r.MeasuredEdges = int64(a.NNZ())
	r.MeasuredDegrees = bigdeg.FromInt64Map(hist)
	for _, cnt := range hist {
		r.MeasuredVertices += cnt
	}
	st := obs.Stages.Stage(stageTriangles)
	u, err := triangle.Orient(ctx, a, np, st)
	if err != nil {
		return err
	}
	r.MeasuredTriangles, err = u.CountBoth(ctx, np, st)
	return err
}

// RunMaterialized is the pre-streaming reference engine: it collects every
// generated edge into one global COO, canonicalizes it with a comparison
// sort, and measures from the materialized matrix. It exists as the oracle
// for the streaming engine's parity tests and as the baseline the fig4
// validation-throughput benchmark is measured against; it still enforces
// the historical 2^27-edge bound of the global-sort pipeline.
func RunMaterialized(ctx context.Context, d *core.Design, nb, np int) (*Report, error) {
	r, err := newReport(d, np)
	if err != nil {
		return nil, err
	}
	if err := checkRealizable(r.PredictedVertices, r.PredictedEdges); err != nil {
		return nil, err
	}
	if r.PredictedEdges.Int64() > 1<<27 {
		return nil, fmt.Errorf("validate: design too large for the materialized engine (%s edges)", r.PredictedEdges)
	}
	g, err := gen.New(d, nb)
	if err != nil {
		return nil, err
	}
	n := r.PredictedVertices.Int64()

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
	b *sparse.CSRBuilder[struct{}]
}

func (s tallySink) WriteRun(w int, r pipeline.Run) error {
	for _, e := range r.Local() {
		s.b.Count(w, int(r.RowBase+e.Row))
	}
	return nil
}

func (s tallySink) Close() error { return nil }

// scatterSink is the pass-2 placement fold as a pipeline sink: each worker
// scatters its regenerated band straight into the pattern CSR through its
// prefix-summed cursors. The pattern stores no values, so the sink checks
// that every edge carries 1 — the measured graph is a 0/1 adjacency matrix,
// and any other value is a generator fault to report, not to drop.
type scatterSink struct {
	b *sparse.CSRBuilder[struct{}]
}

func (s scatterSink) WriteRun(w int, r pipeline.Run) error {
	for _, e := range r.Local() {
		if e.Val != 1 {
			return fmt.Errorf("validate: edge (%d,%d) carries value %d; the measured graph must be 0/1",
				r.RowBase+e.Row, r.ColBase+e.Col, e.Val)
		}
		s.b.Place(w, int(r.RowBase+e.Row), int(r.ColBase+e.Col), struct{}{})
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
func checkRealizable(vertices, edges *big.Int) error {
	if !vertices.IsInt64() || !edges.IsInt64() ||
		edges.Int64() > MaxRealizableEdges ||
		vertices.Int64() > maxRealizableVertices {
		return fmt.Errorf("validate: design too large to realize (%s vertices, %s edges)",
			vertices, edges)
	}
	if v := vertices.Int64(); v > math.MaxInt {
		return fmt.Errorf("validate: design has %d vertices, over this platform's %d-bit int range; validate on a 64-bit host",
			v, 32<<(^uint(0)>>63))
	}
	return nil
}

// newReport returns a report on d measured with np workers, its predicted
// side filled from the design's closed forms.
func newReport(d *core.Design, np int) (*Report, error) {
	pred, err := d.Compute()
	if err != nil {
		return nil, err
	}
	return &Report{
		Design:             d,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
	}, nil
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
