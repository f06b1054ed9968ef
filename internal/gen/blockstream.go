package gen

import (
	"context"
	"fmt"

	"repro/internal/graphio"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// minReplayBlockEdges gates the block-replay engine: below this C fan-out a
// template render plus a WriteBlockRun per B-triple costs about as much as
// just generating the handful of edges, so tiny C sides stay on the batch
// path.
const minReplayBlockEdges = 8

// streamBlockRange is the block-replay engine behind StreamTo and
// StreamShardTo for block-capable sinks: the same B-triple range and worker
// partition as streamBRange, but instead of filling edge batches each worker
// renders the C block's delta template once per distinct B value (values
// multiply through the template; coordinates are block-invariant) and hands
// each B-triple to the sink as one WriteBlockRun at that triple's
// (rowBase, colBase) offset. The one B-triple whose block contains the
// removed self-loop cannot replay a full-block template — its edge set
// differs — and falls back to per-edge batches, preserving exact edge order
// within the worker. Context is checked once per B-triple; the band-order
// guarantee holds because runs and fallback batches alike follow CSC order.
func (g *Generator) streamBlockRange(ctx context.Context, bLo, bHi, np, batchSize int, sink pipeline.BlockSink) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	if bLo < 0 || bHi < bLo || bHi > g.b.NNZ() {
		return fmt.Errorf("gen: B-triple range [%d, %d) outside [0, %d)", bLo, bHi, g.b.NNZ())
	}
	parts, err := parallel.Partition(bHi-bLo, np)
	if err != nil {
		return err
	}
	mC, nC := g.mC, g.nC
	loop := g.loopRow
	return parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		var (
			tmpl     graphio.DeltaBlockTemplate
			tmplVal  int64
			rendered bool
			scaled   []Edge // C's edges with vals × the current B value, when ≠ 1
			loopBuf  []Edge // lazily sized; only the loop-owning triple uses it
		)
		cEdges := g.cEdges
		for _, tb := range g.b.Tr[bLo+parts[p].Lo : bLo+parts[p].Hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			rBase := int64(tb.Row) * mC
			cBase := int64(tb.Col) * nC
			if loop >= rBase && loop < rBase+mC && loop >= cBase && loop < cBase+nC {
				// The loop-owning block: per-edge skip, batch delivery.
				if loopBuf == nil {
					loopBuf = make([]Edge, 0, batchSize)
				}
				vB := tb.Val
				for _, ce := range cEdges {
					row := rBase + ce.Row
					col := cBase + ce.Col
					if row == loop && col == loop {
						continue
					}
					loopBuf = append(loopBuf, Edge{Row: row, Col: col, Val: vB * ce.Val})
					if len(loopBuf) == batchSize {
						if err := sink.WriteBatch(p, loopBuf); err != nil {
							return err
						}
						loopBuf = loopBuf[:0]
					}
				}
				if len(loopBuf) > 0 {
					if err := sink.WriteBatch(p, loopBuf); err != nil {
						return err
					}
					loopBuf = loopBuf[:0]
				}
				continue
			}
			if !rendered || tb.Val != tmplVal {
				block := cEdges
				if tb.Val != 1 {
					if scaled == nil {
						scaled = make([]Edge, len(cEdges))
					}
					for i, ce := range cEdges {
						ce.Val *= tb.Val
						scaled[i] = ce
					}
					block = scaled
				}
				tmpl.Render(block)
				tmplVal, rendered = tb.Val, true
			}
			if err := sink.WriteBlockRun(p, pipeline.BlockRun{T: &tmpl, RowBase: rBase, ColBase: cBase}); err != nil {
				return err
			}
		}
		return nil
	})
}
