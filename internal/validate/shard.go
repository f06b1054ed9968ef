package validate

import (
	"context"
	"fmt"
	"math/big"
	"reflect"
	"sort"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/triangle"
)

// ShardReport is one shard's contribution to a design-level validation: the
// shard's exact edge count and XOR content checksum measured in flight, plus
// a CSR fragment holding the shard's edges over the full vertex space. K
// reports covering a whole plan merge into one Report via Merge — the
// validation analogue of PR 4's shard generation, built on the same
// B-triple-range streaming (gen.StreamShardTo) and the same two-pass
// counting-sort CSR assembly as the unsharded engine.
//
// A ShardReport is a measurement, not a verdict: reconciliation against the
// plan's closed-form Edges and a generation job's checksum is the caller's
// step (the service does it per shard), and the predicted-vs-measured
// comparison happens only at Merge, where the design-level properties —
// degree distribution, triangles — first become measurable.
type ShardReport struct {
	// Design and Split identify the workload; Merge refuses to combine
	// reports from different designs or split points.
	Design *core.Design
	Split  int
	// Workers is the processor count the shard's measurement passes used.
	Workers int
	// Shard is the plan slice this report measured.
	Shard gen.ShardInfo
	// MeasuredEdges is the number of edges the shard emitted, counted in
	// flight. It must equal Shard.Edges (the plan's closed form); Merge
	// checks.
	MeasuredEdges int64
	// Checksum is the XOR content fold over the shard's edges — the same
	// folding gen.CountShard and the service's generation checksum use, so a
	// validation pass reconciles bit-for-bit against a generation pass that
	// never stored its edges.
	Checksum int64

	// frag holds the shard's edges as canonical CSR over the full n×n vertex
	// space — the mergeable fan-in unit. Unexported: its lifecycle belongs to
	// Merge.
	frag *sparse.CSR[int64]
}

// RunShard measures exactly one shard of the design's plan with np workers:
// the same two passes as Run (tally in flight, then scatter into CSR), riding
// gen.StreamShardTo over the shard's B-triple range instead of the whole
// stream. The per-shard cost is the shard's edge share — no triangle
// counting happens here, because triangles span shards; they are counted
// once, on the merged CSR, by Merge. The tally pass additionally folds the
// shard's XOR checksum so the report reconciles against generation-side
// checksums for free.
//
// Realizability is checked at design scale (the fragments of a whole plan
// ultimately merge into one design-sized CSR), so every shard of an
// admissible design is admissible.
func RunShard(ctx context.Context, d *core.Design, nb, np int, s gen.ShardInfo) (*ShardReport, error) {
	pred, err := d.Compute()
	if err != nil {
		return nil, err
	}
	if err := checkRealizable(pred); err != nil {
		return nil, err
	}
	g, err := gen.New(d, nb)
	if err != nil {
		return nil, err
	}
	n := int(pred.Vertices.Int64())
	builder, err := sparse.NewCSRBuilder[int64](n, n, np)
	if err != nil {
		return nil, err
	}
	// Pass 1 — tally the shard's band in flight, teeing the checksum fold
	// off the same runs. Both sinks are per-worker-private folds, so the
	// pass shares nothing across workers, like the full engine.
	cks := pipeline.NewChecksum(np)
	tally := pipeline.Instrument(obs.Stages.Stage(stageTally),
		pipeline.Tee(tallySink{builder}, cks))
	if err := g.StreamShardTo(ctx, s, np, 0, tally); err != nil {
		return nil, err
	}
	if err := builder.Finalize(); err != nil {
		return nil, err
	}
	// Pass 2 — replay the shard deterministically and scatter into the
	// fragment through the prefix-summed cursors.
	scatter := pipeline.Instrument(obs.Stages.Stage(stageScatter), scatterSink{builder})
	if err := g.StreamShardTo(ctx, s, np, 0, scatter); err != nil {
		return nil, err
	}
	frag, err := builder.Build()
	if err != nil {
		return nil, err
	}
	return &ShardReport{
		Design:        d,
		Split:         nb,
		Workers:       np,
		Shard:         s,
		MeasuredEdges: int64(builder.NNZ()),
		Checksum:      cks.Sum(),
		frag:          frag,
	}, nil
}

// Merge combines a complete plan's shard reports into one design-level
// Report with np workers: fragments concatenate per row in shard order
// (canonical without sorting, because the generator's band-order guarantee
// extends across shards), degrees and vertices fall out of the merged row
// pointers, and triangles are counted once over the merged CSR's
// weight-balanced entry bands — the only phase of validation that must see
// the whole graph.
//
// Merge is defensive about coverage: the reports must all describe the same
// design and split, belong to the same K-shard plan, cover every index
// 0..K−1 exactly once with contiguous B ranges, and each must have measured
// exactly the edge count its plan slice promised. Any gap or overlap fails
// loudly — a merged report must never silently describe a subset of the
// design.
func Merge(ctx context.Context, reports []*ShardReport, np int) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("validate: Merge needs at least one shard report")
	}
	for i, r := range reports {
		if r == nil || r.frag == nil {
			return nil, fmt.Errorf("validate: shard report %d is nil or holds no fragment", i)
		}
	}
	first := reports[0]
	K := first.Shard.Shards
	if len(reports) != K {
		return nil, fmt.Errorf("validate: %d shard reports for a %d-shard plan", len(reports), K)
	}
	ordered := make([]*ShardReport, len(reports))
	copy(ordered, reports)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Shard.Shard < ordered[j].Shard.Shard })
	for i, r := range ordered {
		if r.Shard.Shards != K {
			return nil, fmt.Errorf("validate: shard %d/%d mixed into a %d-shard merge",
				r.Shard.Shard, r.Shard.Shards, K)
		}
		if r.Shard.Shard != i {
			return nil, fmt.Errorf("validate: plan coverage broken: shard index %d missing (found %d twice?)",
				i, r.Shard.Shard)
		}
		if r.Split != first.Split || !reflect.DeepEqual(r.Design, first.Design) {
			return nil, fmt.Errorf("validate: shard %d was measured on a different design or split", r.Shard.Shard)
		}
		if i > 0 && r.Shard.BLo != ordered[i-1].Shard.BHi {
			return nil, fmt.Errorf("validate: shard %d B range [%d,%d) not contiguous with shard %d's [%d,%d)",
				r.Shard.Shard, r.Shard.BLo, r.Shard.BHi,
				ordered[i-1].Shard.Shard, ordered[i-1].Shard.BLo, ordered[i-1].Shard.BHi)
		}
		if r.MeasuredEdges != r.Shard.Edges {
			return nil, fmt.Errorf("validate: shard %d measured %d edges, plan promised %d",
				r.Shard.Shard, r.MeasuredEdges, r.Shard.Edges)
		}
	}

	pred, err := first.Design.Compute()
	if err != nil {
		return nil, err
	}
	frags := make([]*sparse.CSR[int64], len(ordered))
	for i, r := range ordered {
		frags[i] = r.frag
	}
	a, err := sparse.MergeCSR(ctx, np, frags)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Design:             first.Design,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
	}
	rep.MeasuredEdges = int64(a.NNZ())
	hist, err := sparse.DegreeHistogramCSR(a.RowPtr, np)
	if err != nil {
		return nil, err
	}
	md := bigdeg.New()
	var touched int64
	for deg, cnt := range hist {
		md.AddCount(big.NewInt(deg), big.NewInt(cnt))
		touched += cnt
	}
	rep.MeasuredDegrees = md
	rep.MeasuredVertices = touched

	tri, err := triangle.CountBothCSR(ctx, a, np)
	if err != nil {
		return nil, err
	}
	rep.MeasuredTriangles = tri

	rep.compare()
	return rep, nil
}
