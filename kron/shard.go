package kron

import (
	"context"

	"repro/internal/gen"
	"repro/internal/validate"
)

// ShardInfo describes one shard of a deterministic generation plan: a
// contiguous slice of the design's CSC-ordered B triples that one process
// generates independently, with its exact edge count. See gen.ShardInfo.
type ShardInfo = gen.ShardInfo

// PlanShards partitions the B-triple × C work of design d (split after its
// first nb factors) into shards cost-balanced shards, 1 ≤ shards ≤ 2^16,
// without realizing either side — nnz(B), nnz(C), and the loop-owning
// triple all have closed forms. The plan is a pure function of (design, nb,
// shards): any process, coordinator or worker, that rebuilds it gets
// bitwise-identical ranges, so K independent replicas can each pick their
// shard with no communication. Per-shard Edges sum exactly to the design's
// edge count, and the concatenation of all shards' StreamShardTo outputs
// equals one full StreamTo pass edge-for-edge. It is the only planner: an
// unsharded run is the only shard of the one-shard plan.
//
// A realized Generator runs a shard with StreamShardTo, and counts and
// checksums one with CountShard; the XOR of every shard's checksum is the
// whole graph's.
func PlanShards(d *Design, nb, shards int) ([]ShardInfo, error) {
	return gen.PlanDesignShards(d, nb, shards)
}

// ShardValidation is one shard's contribution to a design-level validation:
// exact in-flight edge count and XOR checksum for the shard's slice, plus an
// internal CSR fragment that MergeValidation folds into one design-level
// ValidationReport. See validate.ShardReport.
type ShardValidation = validate.ShardReport

// ValidateShard measures exactly one shard of design d's plan (split after nb
// factors) with np workers — the validation analogue of StreamShardTo. The cost
// is proportional to the shard's edge share; triangle counting, which must
// see the whole graph, is deferred to MergeValidation. The returned report's
// MeasuredEdges and Checksum reconcile against the plan's closed-form Edges
// and a generation run's checksum, so K validation processes can each check
// their slice with no communication and a coordinator can confirm the union
// is exactly the designed graph.
func ValidateShard(ctx context.Context, d *Design, nb, np int, s ShardInfo) (*ShardValidation, error) {
	return validate.RunShard(ctx, d, nb, np, s)
}

// MergeValidation combines a complete plan's shard validations into one
// design-level ValidationReport with np workers: fragments concatenate per
// row in shard order (canonical, by the generator's cross-shard band-order
// guarantee), and triangles are counted once over the merged CSR. Each
// validation's slice must equal the matching slice of the design's own
// K-shard plan and must have measured its closed-form edge count; anything
// else fails loudly — a merged report never silently describes a subset of
// the design. A ShardValidation rebuilt from its exported fields holds no
// fragment and cannot be merged.
func MergeValidation(ctx context.Context, reports []*ShardValidation, np int) (*ValidationReport, error) {
	return validate.Merge(ctx, reports, np)
}
