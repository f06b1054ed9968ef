package validate

import (
	"context"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

// ShardReport is one shard's contribution to a design-level validation: the
// shard's exact edge count and XOR content checksum measured in flight, plus
// a CSR fragment holding the shard's edges over the full vertex space. K
// reports covering a whole plan merge into one Report via Merge — the
// validation analogue of shard generation, built on the same B-triple-range
// streaming (gen.StreamShardTo). The whole graph is the one-shard plan's
// only slice, which is how Run measures it.
//
// A ShardReport is a measurement, not a verdict: reconciliation against a
// generation job's checksum is the caller's step (the service does it per
// job), and the predicted-vs-measured comparison happens only at Merge,
// which also checks each slice against the plan and where the design-level
// properties — degree distribution, triangles — first become measurable.
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

	// frag holds the shard's edges as a canonical pattern CSR over the full
	// n×n vertex space — the mergeable fan-in unit. Unexported: its
	// lifecycle belongs to Merge, and a report rebuilt from the exported
	// fields is the same measurement without it.
	frag *sparse.CSR[struct{}]
}

// RunShard measures exactly one shard of the design's plan with np workers:
// tally in flight, then scatter into a CSR fragment, riding
// gen.StreamShardTo over the shard's B-triple range. The per-shard cost is
// the shard's edge share — no triangle counting happens here, because
// triangles span shards; they are counted once, on the merged CSR, by
// Merge. The tally pass additionally folds the shard's XOR checksum so the
// report reconciles against generation-side checksums for free.
//
// Realizability is checked at design scale, from the closed-form vertex
// and edge counts (the fragments of a whole plan ultimately merge into one
// design-sized CSR), so every shard of an admissible design is admissible.
func RunShard(ctx context.Context, d *core.Design, nb, np int, s gen.ShardInfo) (*ShardReport, error) {
	n := d.NumVertices()
	if err := checkRealizable(n, d.NumEdges()); err != nil {
		return nil, err
	}
	g, err := gen.New(d, nb)
	if err != nil {
		return nil, err
	}
	// The tally pass tees the checksum fold off the same runs; both are
	// per-worker-private folds, so the pass shares nothing across workers.
	cks := pipeline.NewChecksum(np)
	frag, err := buildPattern(int(n.Int64()), np,
		func(sink pipeline.Sink) error { return g.StreamShardTo(ctx, s, np, 0, sink) }, cks)
	if err != nil {
		return nil, err
	}
	return &ShardReport{
		Design:        d,
		Split:         nb,
		Workers:       np,
		Shard:         s,
		MeasuredEdges: int64(frag.NNZ()),
		Checksum:      cks.Sum(),
		frag:          frag,
	}, nil
}

// Merge combines a complete plan's shard reports into one design-level
// Report with np workers: fragments concatenate per row in shard order
// (canonical without sorting, because the generator's band-order guarantee
// extends across shards; a single fragment is taken as it is), degrees and
// vertices fall out of the merged row pointers, and triangles are counted
// once on the merged pattern's degree-oriented half — the only phase of
// validation that must see the whole graph.
//
// Merge is defensive about coverage: the reports must all describe the same
// design and split, and sorted by index each report's slice must be exactly
// the matching slice of the design's own K-shard plan (K = len(reports)) —
// index, shard count, B range and closed-form edge count — and must have
// measured exactly that many edges. Any gap, overlap or stray slice fails
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
	K := len(reports)
	plan, err := gen.PlanDesignShards(first.Design, first.Split, K)
	if err != nil {
		return nil, err
	}
	ordered := slices.Clone(reports)
	slices.SortFunc(ordered, func(a, b *ShardReport) int { return a.Shard.Shard - b.Shard.Shard })
	frags := make([]*sparse.CSR[struct{}], K)
	for i, r := range ordered {
		if r.Split != first.Split || !reflect.DeepEqual(r.Design, first.Design) {
			return nil, fmt.Errorf("validate: shard %d was measured on a different design or split", r.Shard.Shard)
		}
		got, want := r.Shard, plan[i]
		if got != want {
			return nil, fmt.Errorf("validate: shard %d/%d covers B triples [%d,%d) with %d edges; the design's %d-shard plan has shard %d/%d at [%d,%d) with %d edges",
				got.Shard, got.Shards, got.BLo, got.BHi, got.Edges,
				K, want.Shard, want.Shards, want.BLo, want.BHi, want.Edges)
		}
		if r.MeasuredEdges != want.Edges {
			return nil, fmt.Errorf("validate: shard %d measured %d edges, plan promised %d",
				r.Shard.Shard, r.MeasuredEdges, want.Edges)
		}
		frags[i] = r.frag
	}

	rep, err := newReport(first.Design, np)
	if err != nil {
		return nil, err
	}
	a, err := sparse.MergeCSR(ctx, np, frags)
	if err != nil {
		return nil, err
	}
	if err := rep.measure(ctx, a, np); err != nil {
		return nil, err
	}
	rep.compare()
	return rep, nil
}
