package kron

import (
	"context"

	"repro/internal/gen"
	"repro/internal/validate"
)

// ShardInfo describes one shard of a deterministic generation plan: a
// contiguous slice of the design's CSC-ordered B triples that one process
// generates independently, with its exact edge count and (once filled by
// Generator.ChecksumPlan) content checksum. See gen.ShardInfo.
type ShardInfo = gen.ShardInfo

// PlanShards partitions the B-triple × C work of design d (split after its
// first nb factors) into shards cost-balanced shards without realizing
// either side — nnz(B), nnz(C), and the loop-owning triple all have closed
// forms. The plan is a pure function of (design, nb, shards): any process,
// coordinator or worker, that rebuilds it gets bitwise-identical ranges, so
// K independent replicas can each pick their shard with no communication.
// Per-shard Edges sum exactly to the design's edge count, and the
// concatenation of all shards' StreamShardTo outputs equals one full
// StreamTo pass edge-for-edge.
//
// A realized Generator offers the same plan via its PlanShards method, plus
// StreamShardTo to generate one shard, CountShard to count-and-checksum
// one shard, and ChecksumPlan to fill every shard's verification checksum.
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
// guarantee), and triangles are counted once over the merged CSR. It fails
// loudly on incomplete or inconsistent coverage — a merged report never
// silently describes a subset of the design.
func MergeValidation(ctx context.Context, reports []*ShardValidation, np int) (*ValidationReport, error) {
	return validate.Merge(ctx, reports, np)
}

// SampledValidationReport is the approximate counterpart of ValidationReport:
// vertices, edges, and the degree distribution are still measured exactly
// (summarized by a Kolmogorov–Smirnov statistic against the prediction), and
// only triangle counting — the superlinear phase that dominates exact
// validation — is estimated from a stride-sample of entry bands. See
// validate.SampledReport.
type SampledValidationReport = validate.SampledReport

// SampleOptions tunes ValidateSampled; the zero value means defaults.
type SampleOptions = validate.SampleOptions

// ValidateSampled runs the approximate validation mode: exact everything
// except triangles, which are estimated from a deterministic sample of the
// measured CSR's weight-balanced entry bands. Use it for interactive checks
// on designs whose exact triangle count would take minutes; Validate remains
// the exact verdict.
func ValidateSampled(ctx context.Context, d *Design, nb, np int, opt SampleOptions) (*SampledValidationReport, error) {
	return validate.RunSampled(ctx, d, nb, np, opt)
}
