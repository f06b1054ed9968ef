// Package gen implements Section V's communication-free parallel graph
// generator. The design's factors are split into A = B ⊗ C; B and C are
// realized (both sized to fit in one processor's memory); each of Np
// processors takes an equal slice of B's nonzero triples in CSC (column-
// major) order and locally forms its piece Ap = Bp ⊗ C. Workers share no
// state and never communicate; concatenating their outputs reproduces the
// serial Kronecker product exactly, with the design's single self-loop
// removed on the fly.
package gen

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

// Generator holds the realized B and C sides of a split design, ready to
// produce the product graph at any worker count.
type Generator struct {
	design *core.Design
	b      *sparse.COO[int64] // raw product of the B factors, CSC-ordered triples
	// cEdges is the raw product of the C factors: its row-major triples as
	// block-local int64 edges, the one form of C the engines read. The B×C
	// inner loop runs over this slice: the per-edge work is then three adds
	// and a multiply against values already in edge layout — no int→int64
	// widening, no struct conversion — and the block-replay path renders
	// its templates from it directly.
	cEdges []Edge
	mC, nC int64 // C's dimensions
	// loopRow is the global index of the self-loop to drop, or -1.
	loopRow int64
	mA      int64 // total vertices
	nnzA    int64 // stored entries including the not-yet-removed loop
}

// New splits the design after its first nb factors and realizes both sides,
// each directly in the order the engines need (sparse.KronOrdered), with
// no sort. The B side's triples come out column-major, matching the paper's
// CSC storage, so each worker's slice covers a contiguous band of B columns.
// The C side comes out row-major, which gives the streamed output a
// structural guarantee the measurement engine builds on: within any one
// worker, the edges of each global row arrive in strictly increasing column
// order, and worker p+1's entries for that row all come after worker p's
// (see StreamBatches).
func New(d *core.Design, nb int) (*Generator, error) {
	bd, cd, err := d.Split(nb)
	if err != nil {
		return nil, err
	}
	b := &sparse.COO[int64]{Tr: make([]sparse.Triple[int64], 0, rawNNZ(bd))}
	b.NumRows, b.NumCols, err = realize(bd, true, func(row, col int, val int64) {
		b.Tr = append(b.Tr, sparse.Triple[int64]{Row: row, Col: col, Val: val})
	})
	if err != nil {
		return nil, fmt.Errorf("gen: realizing B: %w", err)
	}
	// Row-major order for C: with B in CSC order, every worker then emits
	// each global row's columns in ascending order (global column
	// cB·nC + cC is ordered first by the worker's ascending cB, then by cC
	// within one B triple's fan-out).
	cEdges := make([]Edge, 0, rawNNZ(cd))
	mC, nC, err := realize(cd, false, func(row, col int, val int64) {
		cEdges = append(cEdges, Edge{Row: int64(row), Col: int64(col), Val: val})
	})
	if err != nil {
		return nil, fmt.Errorf("gen: realizing C: %w", err)
	}
	g := &Generator{
		design:  d,
		b:       b,
		cEdges:  cEdges,
		mC:      int64(mC),
		nC:      int64(nC),
		loopRow: -1,
		mA:      int64(b.NumRows) * int64(mC),
		nnzA:    int64(b.NNZ()) * int64(len(cEdges)),
	}
	switch d.Loop() {
	case star.LoopHub:
		g.loopRow = 0
	case star.LoopLeaf:
		g.loopRow = g.mA - 1
	}
	return g, nil
}

// realize enumerates the raw Kronecker product of d's factors, loop
// included (the loop is removed once, from the final product, not from B or
// C), in column-major or row-major order.
func realize(d *core.Design, colMajor bool, emit func(row, col int, val int64)) (rows, cols int, err error) {
	specs := d.Factors()
	factors := make([]*sparse.COO[int64], len(specs))
	for i, s := range specs {
		factors[i] = s.Adjacency()
	}
	return sparse.KronOrdered(semiring.PlusTimesInt64(), colMajor, factors, emit)
}

// rawNNZ is the closed-form length of d's realized product, loop included,
// for use as a slice capacity; 0 when it does not fit an int (realization
// then fails its own dimension checks).
func rawNNZ(d *core.Design) int {
	n := d.NNZWithLoops()
	if !n.IsInt64() || n.Int64() > math.MaxInt {
		return 0
	}
	return int(n.Int64())
}

// NumVertices returns mA for the realized product.
func (g *Generator) NumVertices() int64 { return g.mA }

// NumEdges returns the exact number of edges the generator will emit
// (raw nonzeros minus the removed self-loop).
func (g *Generator) NumEdges() int64 {
	if g.loopRow >= 0 {
		return g.nnzA - 1
	}
	return g.nnzA
}

// BNNZ returns nnz(B), the number of distributable work units.
func (g *Generator) BNNZ() int { return g.b.NNZ() }

// CNNZ returns nnz(C), each worker's per-triple fan-out.
func (g *Generator) CNNZ() int { return len(g.cEdges) }

// Edge is one generated directed adjacency entry in global coordinates. It
// aliases graphio.Edge so generated batches flow into the edge encoders
// without conversion or copying.
type Edge = graphio.Edge

// The module has exactly two batch-size knobs, homed here together because
// they are two points on one tradeoff: the context is checked once per
// batch, so batch size buys throughput (fewer callback/check boundaries per
// edge) at the price of cancellation latency (more edges generated between
// ctx.Err() observations).
const (
	// DefaultBatchSize is the per-worker edge batch size StreamBatches and
	// StreamTo use when the caller passes batchSize <= 0: large enough to
	// amortize the per-batch callback to nothing, small enough that a batch
	// stays cache-resident. The service's streaming hand-off defaults to
	// this size too (kronserve -batch overrides it per server).
	DefaultBatchSize = 2048
	// CompatBatchSize is the internal batch the per-edge Stream shim runs
	// on: smaller than DefaultBatchSize so per-edge callers keep roughly
	// the cancellation latency the old per-B-triple context check gave
	// them, at a per-edge indirection cost batch-native consumers never
	// pay.
	CompatBatchSize = 512
)

// StreamBatches is the batch-native hot path: it generates the graph with np
// workers, filling a reusable per-worker edge buffer directly in the inner
// B-triple × C loop and handing it to emit once per batchSize edges
// (batchSize <= 0 selects DefaultBatchSize). The context is checked once per
// batch, and the removed-self-loop test runs only for the single B triple
// whose row and column blocks can contain the loop — every other triple's
// fan-out is a straight fill. emit is invoked concurrently from np
// goroutines with deterministic per-worker batch order; the batch slice is
// reused after emit returns, so an emit that retains edges beyond the call
// must copy them. A non-nil error from emit (or a cancelled ctx) stops the
// remaining workers.
//
// Band-order guarantee: because B is in CSC order and C in row-major order
// (see New), each worker emits any given global row's entries in strictly
// increasing column order, and for every row, all of worker p's entries
// precede worker p+1's in column order. Concatenating the workers' streams
// row by row in worker order therefore yields canonical sorted CSR rows
// with no comparison sort — the property sparse.CSRBuilder exploits.
func (g *Generator) StreamBatches(ctx context.Context, np, batchSize int, emit func(p int, batch []Edge) error) error {
	return g.StreamTo(ctx, np, batchSize, pipeline.Func(emit))
}

// StreamTo generates the graph with np workers into a composable sink — the
// pipeline-native face of StreamBatches (which is this method over a
// pipeline.Func adapter). Every StreamBatches guarantee holds: batch reuse
// (the sink owns each batch only until WriteBatch returns), one context
// check per batch, the band-order property, and concurrent per-worker
// delivery. Tee the sink to consume one pass K ways — stream to an edge
// writer, count, and checksum simultaneously. When the pass ends — success,
// sink error, or cancellation — the sink is closed exactly once, so
// consumers blocked on a sink's output always observe end-of-stream; the
// close error is returned only when generation itself succeeded.
//
// A sink composition that is block-capable (pipeline.BlockSink — every
// constituent opted in) and a C side large enough to amortize the template
// render switch the pass to the block-replay engine: per worker, the
// C-block's delta template is rendered once per distinct B value and each
// B-triple crosses the sink as one WriteBlockRun instead of cnnz/batchSize
// batches. Edge order, the band-order guarantee, and the Close contract are
// identical either way.
func (g *Generator) StreamTo(ctx context.Context, np, batchSize int, sink pipeline.Sink) error {
	var err error
	if bs, ok := sink.(pipeline.BlockSink); ok && len(g.cEdges) >= minReplayBlockEdges {
		err = g.streamBlockRange(ctx, 0, g.b.NNZ(), np, batchSize, bs)
	} else {
		err = g.streamBRange(ctx, 0, g.b.NNZ(), np, batchSize, sink.WriteBatch)
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return err
}

// streamBRange is the engine behind StreamBatches and StreamShard: it
// generates the edges of B triples [bLo, bHi) (CSC order) × C with np
// workers, each owning a contiguous slice of the range. All of StreamBatches'
// guarantees — batch reuse, per-batch context checks, the band-order property
// — hold within the range, because a sub-range of CSC-ordered triples is
// itself CSC-ordered.
func (g *Generator) streamBRange(ctx context.Context, bLo, bHi, np, batchSize int, emit func(p int, batch []Edge) error) error {
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
		buf := make([]Edge, 0, batchSize)
		flush := func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := emit(p, buf); err != nil {
				return err
			}
			buf = buf[:0]
			return nil
		}
		cEdges := g.cEdges
		for _, tb := range g.b.Tr[bLo+parts[p].Lo : bLo+parts[p].Hi] {
			rBase := int64(tb.Row) * mC
			cBase := int64(tb.Col) * nC
			vB := tb.Val
			if loop >= rBase && loop < rBase+mC && loop >= cBase && loop < cBase+nC {
				// This triple's block contains the removed self-loop: keep
				// the per-edge skip test (loop >= 0 is implied — both block
				// ranges are non-negative).
				for _, ce := range cEdges {
					row := rBase + ce.Row
					col := cBase + ce.Col
					if row == loop && col == loop {
						continue
					}
					buf = append(buf, Edge{Row: row, Col: col, Val: vB * ce.Val})
					if len(buf) == batchSize {
						if err := flush(); err != nil {
							return err
						}
					}
				}
				continue
			}
			for _, ce := range cEdges {
				buf = append(buf, Edge{Row: rBase + ce.Row, Col: cBase + ce.Col, Val: vB * ce.Val})
				if len(buf) == batchSize {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		if len(buf) > 0 {
			return flush()
		}
		return nil
	})
}

// Stream generates the graph with np workers, calling emit once per edge.
// Each worker enumerates its slice of B triples against all of C; the
// removed self-loop is skipped. emit is invoked concurrently from np
// goroutines and must be safe for the worker index it receives; edges arrive
// in deterministic per-worker order. Cancellation is cooperative: Stream is
// implemented on StreamBatches with an internal batch, so each worker checks
// ctx once per CompatBatchSize edges and stops with ctx.Err() once it is
// cancelled. A non-nil error from emit cancels the remaining workers. This
// is the convenience per-edge view of StreamBatches — rate-sensitive
// consumers should use StreamBatches directly and skip the per-edge
// callback.
func (g *Generator) Stream(ctx context.Context, np int, emit func(worker int, e Edge) error) error {
	return g.StreamBatches(ctx, np, CompatBatchSize, func(p int, batch []Edge) error {
		for _, e := range batch {
			if err := emit(p, e); err != nil {
				return err
			}
		}
		return nil
	})
}

// CountEdges generates the whole graph with np workers, computing every
// global coordinate but discarding the edges, and returns the total emitted.
// This is the honest "edges generated per second" workload of Figure 3: the
// full index arithmetic runs; only the store is elided. The returned
// checksum deters dead-code elimination in benchmarks. CountEdges and
// CountShard run the identical engine (countBRange), so their rates compare
// apples-to-apples and the shard-checksum invariant — XOR of per-shard
// checksums equals the whole-graph checksum — rests on one fold, not two
// copies of it. Cancellation is checked once per B triple; a cancelled ctx
// returns ctx.Err().
func (g *Generator) CountEdges(ctx context.Context, np int) (total int64, checksum int64, err error) {
	return g.countBRange(ctx, 0, g.b.NNZ(), np)
}

// countBRange enumerates the edges of B triples [bLo, bHi) × C with np
// workers, counting and checksum-folding instead of storing — the count
// analogue of streamBRange. The context is checked once per B triple
// (cheaper than the fan-out it gates).
func (g *Generator) countBRange(ctx context.Context, bLo, bHi, np int) (total, checksum int64, err error) {
	if bLo < 0 || bHi < bLo || bHi > g.b.NNZ() {
		return 0, 0, fmt.Errorf("gen: B-triple range [%d, %d) outside [0, %d)", bLo, bHi, g.b.NNZ())
	}
	parts, err := parallel.Partition(bHi-bLo, np)
	if err != nil {
		return 0, 0, err
	}
	counts := make([]int64, np)
	sums := make([]int64, np)
	mC, nC := g.mC, g.nC
	err = parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		var n, s int64
		cEdges := g.cEdges
		loop := g.loopRow
		for _, tb := range g.b.Tr[bLo+parts[p].Lo : bLo+parts[p].Hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			rBase := int64(tb.Row) * mC
			cBase := int64(tb.Col) * nC
			for _, ce := range cEdges {
				row := rBase + ce.Row
				col := cBase + ce.Col
				if row == loop && col == loop {
					continue
				}
				n++
				s ^= row*31 + col
			}
		}
		counts[p] = n
		sums[p] = s
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for p := 0; p < np; p++ {
		total += counts[p]
		checksum ^= sums[p]
	}
	return total, checksum, nil
}

// Part is one worker's materialized output: the local matrix Ap built from
// the worker's column-band of B (columns re-based by ColOffset, the paper's
// "minimum value of jp is subtracted" CSC step) Kronecker C. Global column
// gc of an entry (r, c) is ColOffset·nC + c; rows are already global.
type Part struct {
	Worker int
	// ColOffset is the smallest B column owned by this worker.
	ColOffset int
	// Ap holds the worker's entries with global rows and local columns.
	Ap *sparse.COO[int64]
}

// Materialize generates per-worker matrices the way Section V describes:
// each worker forms Bp from its triples (with min column subtracted) and
// computes Ap = Bp ⊗ C in memory. Empty workers produce a Part with a
// 0-column Ap.
func (g *Generator) Materialize(np int) ([]Part, error) {
	parts, err := parallel.Partition(g.b.NNZ(), np)
	if err != nil {
		return nil, err
	}
	out := make([]Part, np)
	mC, nC := g.mC, g.nC
	err = parallel.Run(np, func(p int) error {
		slice := g.b.Tr[parts[p].Lo:parts[p].Hi]
		if len(slice) == 0 {
			out[p] = Part{Worker: p, Ap: sparse.MustCOO[int64](int(g.mA), 0, nil)}
			return nil
		}
		minCol, maxCol := slice[0].Col, slice[0].Col
		for _, t := range slice {
			if t.Col < minCol {
				minCol = t.Col
			}
			if t.Col > maxCol {
				maxCol = t.Col
			}
		}
		localCols, err := sparse.MulDim(maxCol-minCol+1, int(nC))
		if err != nil {
			return fmt.Errorf("gen: worker %d column band [%d, %d]: %w", p, minCol, maxCol, err)
		}
		tr := make([]sparse.Triple[int64], 0, len(slice)*len(g.cEdges))
		for _, tb := range slice {
			rBase := int64(tb.Row) * mC
			cBase := int64(tb.Col-minCol) * nC
			globalColBase := int64(tb.Col) * nC
			for _, ce := range g.cEdges {
				row := rBase + ce.Row
				if row == g.loopRow && globalColBase+ce.Col == g.loopRow {
					continue
				}
				tr = append(tr, sparse.Triple[int64]{
					Row: int(row),
					Col: int(cBase + ce.Col),
					Val: tb.Val * ce.Val,
				})
			}
		}
		ap, err := sparse.NewCOO(int(g.mA), localCols, tr)
		if err != nil {
			return err
		}
		out[p] = Part{Worker: p, ColOffset: minCol, Ap: ap}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Assemble recombines materialized parts into one global matrix, the
// inverse of the distribution step; used by tests to prove the parallel
// output equals the serial product.
func (g *Generator) Assemble(parts []Part) (*sparse.COO[int64], error) {
	nC := int(g.nC)
	var tr []sparse.Triple[int64]
	for _, p := range parts {
		for _, t := range p.Ap.Tr {
			tr = append(tr, sparse.Triple[int64]{
				Row: t.Row,
				Col: p.ColOffset*nC + t.Col,
				Val: t.Val,
			})
		}
	}
	return sparse.NewCOO(int(g.mA), int(g.mA), tr)
}
