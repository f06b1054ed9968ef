package gen

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// ShardInfo describes one shard of a deterministic generation plan: a
// contiguous slice [BLo, BHi) of the design's CSC-ordered B triples whose
// C fan-out a single process generates independently. A plan is a pure
// function of (design, split, shard count) — Section V's zero-communication
// property means the shards never coordinate, and concatenating their
// streams in shard order reproduces the full StreamTo stream edge-for-edge.
type ShardInfo struct {
	// Shard is this shard's index in [0, Shards).
	Shard int `json:"shard"`
	// Shards is the plan's total shard count.
	Shards int `json:"shards"`
	// BLo and BHi bound the half-open B-triple range, in CSC order.
	BLo int `json:"bLo"`
	BHi int `json:"bHi"`
	// Edges is the exact number of edges this shard emits (its B range's
	// C fan-out, minus the removed self-loop when that falls in range).
	Edges int64 `json:"edges"`
	// Checksum is the XOR checksum of the shard's edges (the same folding
	// CountEdges uses); zero until filled by ChecksumPlan.
	Checksum int64 `json:"checksum"`
}

// BRange returns the shard's B-triple range.
func (s ShardInfo) BRange() parallel.Range { return parallel.Range{Lo: s.BLo, Hi: s.BHi} }

// planShards is the one closed-form planner behind both the generator-side
// and design-side entry points: partition bnnz B triples into shards
// contiguous cost-balanced ranges (each triple costs exactly cnnz edges of
// fan-out), charging the removed self-loop to the shard owning loopTriple
// (-1 when no loop is removed).
func planShards(bnnz int, cnnz int64, loopTriple, shards int) ([]ShardInfo, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gen: shard count %d; need at least 1", shards)
	}
	parts, err := parallel.Partition(bnnz, shards)
	if err != nil {
		return nil, err
	}
	plan := make([]ShardInfo, shards)
	for p, r := range parts {
		edges := int64(r.Len()) * cnnz
		if loopTriple >= r.Lo && loopTriple < r.Hi {
			edges--
		}
		plan[p] = ShardInfo{Shard: p, Shards: shards, BLo: r.Lo, BHi: r.Hi, Edges: edges}
	}
	return plan, nil
}

// PlanShards partitions the generator's work into shards cost-balanced
// shards. The plan is deterministic — same design, same split, same shard
// count, same plan — and exact: per-shard Edges are closed-form counts that
// sum to NumEdges. Shard counts beyond nnz(B) yield trailing empty shards
// (the paper's processors-without-triples case).
func (g *Generator) PlanShards(shards int) ([]ShardInfo, error) {
	return planShards(g.b.NNZ(), int64(g.c.Len()), g.loopTriple, shards)
}

// PlanDesignShards computes the identical plan to PlanShards on a realized
// generator — pinned by tests — without realizing either split side: nnz(B),
// nnz(C), and the loop-owning triple's CSC position all have closed forms.
// The hub loop lives at B position (0,0), the CSC-minimal triple; the leaf
// loop at (mB−1, mB−1), the CSC-maximal one. This is what lets a service
// admit and route shard jobs from design arithmetic alone.
func PlanDesignShards(d *core.Design, nb, shards int) ([]ShardInfo, error) {
	bd, cd, err := d.Split(nb)
	if err != nil {
		return nil, err
	}
	bnnzBig, cnnzBig := bd.NNZWithLoops(), cd.NNZWithLoops()
	if total := new(big.Int).Mul(bnnzBig, cnnzBig); !total.IsInt64() {
		return nil, fmt.Errorf("gen: design has %s raw entries; shard plans need int64-sized graphs", total)
	}
	bnnz64, cnnz := bnnzBig.Int64(), cnnzBig.Int64()
	bnnz := int(bnnz64)
	if int64(bnnz) != bnnz64 {
		return nil, fmt.Errorf("gen: nnz(B) = %d exceeds the int range", bnnz64)
	}
	loopTriple := -1
	switch d.Loop() {
	case star.LoopHub:
		loopTriple = 0
	case star.LoopLeaf:
		loopTriple = bnnz - 1
	}
	return planShards(bnnz, cnnz, loopTriple, shards)
}

// StreamShardTo generates exactly one shard's B-triple range into a
// composable sink with np workers — StreamTo's multi-process face. Within
// the shard every StreamTo guarantee holds (runs of at most batchSize, one
// context check per run, band order), and concatenating all of a plan's
// shard streams in (shard, worker) order is edge-identical to one full
// StreamTo pass: both walk B's CSC triples in order against row-major C.
// The sink is closed exactly once, on success and failure alike; the close
// error is returned only when generation itself succeeded.
func (g *Generator) StreamShardTo(ctx context.Context, s ShardInfo, np, batchSize int, sink pipeline.Sink) error {
	if err := g.checkShard(s); err != nil {
		_ = sink.Close() // the pass still ends; the bad shard is the error to report
		return err
	}
	return g.stream(ctx, s.BLo, s.BHi, np, batchSize, sink)
}

// checkShard validates a shard against this generator's workload, so a plan
// built for a different design or split fails loudly instead of silently
// generating the wrong slice.
func (g *Generator) checkShard(s ShardInfo) error {
	if s.Shards < 1 || s.Shard < 0 || s.Shard >= s.Shards {
		return fmt.Errorf("gen: shard %d/%d outside [0, %d)", s.Shard, s.Shards, s.Shards)
	}
	if s.BLo < 0 || s.BHi < s.BLo || s.BHi > g.b.NNZ() {
		return fmt.Errorf("gen: shard %d/%d B range [%d, %d) outside B's %d triples",
			s.Shard, s.Shards, s.BLo, s.BHi, g.b.NNZ())
	}
	return nil
}

// CountShard streams one shard with np workers into a Counter and a
// Checksum and returns the emitted count and XOR checksum — the per-shard
// analogue of CountEdges (the same pass over the shard's range), and the
// verification primitive a coordinator runs against a worker's claimed
// output.
func (g *Generator) CountShard(ctx context.Context, s ShardInfo, np int) (total, checksum int64, err error) {
	cnt, cks := pipeline.NewCounter(np), pipeline.NewChecksum(np)
	if err := g.StreamShardTo(ctx, s, np, 0, pipeline.Tee(cnt, cks)); err != nil {
		return 0, 0, err
	}
	return cnt.Total(), cks.Sum(), nil
}

// ChecksumPlan fills every shard's Checksum by streaming it (np workers per
// shard, one shard at a time) and verifies each shard's streamed edge
// count against the plan's closed form — a count mismatch means the plan and
// generator disagree about the workload and the plan must not be trusted.
// XORing the filled checksums together yields CountEdges' whole-graph
// checksum, so a coordinator can verify K independent shard runs add up to
// exactly the designed graph.
func (g *Generator) ChecksumPlan(ctx context.Context, plan []ShardInfo, np int) error {
	for i := range plan {
		n, sum, err := g.CountShard(ctx, plan[i], np)
		if err != nil {
			return err
		}
		if n != plan[i].Edges {
			return fmt.Errorf("gen: shard %d/%d streamed %d edges, plan says %d",
				plan[i].Shard, plan[i].Shards, n, plan[i].Edges)
		}
		plan[i].Checksum = sum
	}
	return nil
}
