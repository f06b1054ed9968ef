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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
	// c is the raw product of the C factors, row-major, as the immutable
	// block every B triple's edges are read from: every B value is 1, so
	// triple (i, j)'s block is c shifted by (i·mC, j·nC).
	c      *graphio.Block
	mC, nC int64 // C's dimensions
	// loopRow is the global index of the self-loop to drop, or -1;
	// loopTriple is the B triple whose block holds it (-1 when no loop is
	// removed) and loopEdge its index within c.
	loopRow              int64
	loopTriple, loopEdge int
	mA                   int64 // total vertices
	nnzA                 int64 // stored entries including the not-yet-removed loop
}

// New splits the design after its first nb factors and realizes both sides,
// each directly in the order the generator needs (sparse.KronOrdered), with
// no sort. The B side's triples come out column-major, matching the paper's
// CSC storage, so each worker's slice covers a contiguous band of B columns.
// The C side comes out row-major, which gives the streamed output a
// structural guarantee the measurement engine builds on: within any one
// worker, the edges of each global row arrive in strictly increasing column
// order, and worker p+1's entries for that row all come after worker p's
// (see StreamTo). Every B value must be 1 — star adjacencies hold only 1s —
// because the one shared C block carries the product's values, and C must
// be a 0/1 pattern with coordinates below 2^31 (graphio.NewBlock's rule).
func New(d *core.Design, nb int) (*Generator, error) {
	bd, cd, err := d.Split(nb)
	if err != nil {
		return nil, err
	}
	b := &sparse.COO[int64]{Tr: make([]sparse.Triple[int64], 0, rawNNZ(bd))}
	badB := -1
	b.NumRows, b.NumCols, err = realize(bd, true, func(row, col int, val int64) {
		if val != 1 && badB < 0 {
			badB = len(b.Tr)
		}
		b.Tr = append(b.Tr, sparse.Triple[int64]{Row: row, Col: col, Val: val})
	})
	if err != nil {
		return nil, fmt.Errorf("gen: realizing B: %w", err)
	}
	if badB >= 0 {
		t := b.Tr[badB]
		return nil, fmt.Errorf("gen: B value %d at (%d, %d); the shared C block needs every B value to be 1", t.Val, t.Row, t.Col)
	}
	// Row-major order for C: with B in CSC order, every worker then emits
	// each global row's columns in ascending order (global column
	// cB·nC + cC is ordered first by the worker's ascending cB, then by cC
	// within one B triple's block).
	cEdges := make([]Edge, 0, rawNNZ(cd))
	mC, nC, err := realize(cd, false, func(row, col int, val int64) {
		cEdges = append(cEdges, Edge{Row: int64(row), Col: int64(col), Val: val})
	})
	if err != nil {
		return nil, fmt.Errorf("gen: realizing C: %w", err)
	}
	c, err := graphio.NewBlock(cEdges)
	if err != nil {
		return nil, fmt.Errorf("gen: C side: %w", err)
	}
	g := &Generator{
		design:     d,
		b:          b,
		c:          c,
		mC:         int64(mC),
		nC:         int64(nC),
		loopRow:    -1,
		loopTriple: -1,
		mA:         int64(b.NumRows) * int64(mC),
		nnzA:       int64(b.NNZ()) * int64(len(cEdges)),
	}
	switch d.Loop() {
	case star.LoopHub:
		g.loopRow = 0
	case star.LoopLeaf:
		g.loopRow = g.mA - 1
	}
	if g.loopRow >= 0 {
		if err := g.locateLoop(cEdges); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// locateLoop finds the removed self-loop in the product: the one B triple
// whose row and column blocks both contain loopRow (the loop's coordinates
// pin both), and the C edge at the loop's block-local position, found by
// binary search in C's row-major order.
func (g *Generator) locateLoop(cEdges []Edge) error {
	for i, tb := range g.b.Tr {
		r, c := g.loopRow-int64(tb.Row)*g.mC, g.loopRow-int64(tb.Col)*g.nC
		if r < 0 || r >= g.mC || c < 0 || c >= g.nC {
			continue
		}
		k, ok := slices.BinarySearchFunc(cEdges, [2]int64{r, c}, func(e Edge, at [2]int64) int {
			return cmp.Or(cmp.Compare(e.Row, at[0]), cmp.Compare(e.Col, at[1]))
		})
		if ok {
			g.loopTriple, g.loopEdge = i, k
			return nil
		}
	}
	return fmt.Errorf("gen: the design's self-loop (%d, %d) is not in the realized product", g.loopRow, g.loopRow)
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

// CNNZ returns nnz(C), the edges of each B triple's block.
func (g *Generator) CNNZ() int { return g.c.Len() }

// Edge is one generated directed adjacency entry in global coordinates. It
// aliases graphio.Edge so generated edges flow into the edge encoders
// without conversion or copying.
type Edge = graphio.Edge

// DefaultBatchSize is the run length StreamTo uses when the caller passes
// batchSize <= 0, and the module's one batch-size knob. The context is
// checked once per run, so the size trades throughput (fewer sink calls
// and checks per edge) against cancellation latency (more edges generated
// between ctx.Err() observations): large enough to amortize the per-run
// call to nothing, small enough that an expanded run stays cache-resident.
// The service's streaming hand-off defaults to this size too (kronserve
// -batch overrides it per server).
const DefaultBatchSize = 2048

// StreamTo generates the graph with np workers into a composable sink. Each
// worker takes an equal slice of B's CSC-ordered triples and, for each
// triple, hands the sink the triple's block — the shared C block at the
// triple's (rowBase, colBase) offset — as runs of at most batchSize
// consecutive block edges (batchSize <= 0 selects DefaultBatchSize). The
// context is checked once per run. The removed self-loop is never emitted:
// the one block holding it is cut around the loop edge. Runs are delivered
// concurrently across workers in deterministic per-worker order; a non-nil
// error from the sink (or a cancelled ctx) stops the remaining workers.
// Tee the sink to consume one pass K ways — stream to an edge writer,
// count, and checksum simultaneously. When the pass ends — success, sink
// error, or cancellation — the sink is closed exactly once, so consumers
// blocked on a sink's output always observe end-of-stream; the close error
// is returned only when generation itself succeeded.
//
// Band-order guarantee: because B is in CSC order and C in row-major order
// (see New), each worker emits any given global row's entries in strictly
// increasing column order, and for every row, all of worker p's entries
// precede worker p+1's in column order. Concatenating the workers' streams
// row by row in worker order therefore yields canonical sorted CSR rows
// with no comparison sort — the property sparse.CSRBuilder exploits.
func (g *Generator) StreamTo(ctx context.Context, np, batchSize int, sink pipeline.Sink) error {
	return g.stream(ctx, 0, g.b.NNZ(), np, batchSize, sink)
}

// stream runs the generation loop over B triples [bLo, bHi) and closes the
// sink.
func (g *Generator) stream(ctx context.Context, bLo, bHi, np, batchSize int, sink pipeline.Sink) error {
	err := g.generate(ctx, bLo, bHi, np, batchSize, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return err
}

// generate is Section V's loop and the generator's one traversal of B ⊗ C:
// each of np workers walks its contiguous slice of B triples [bLo, bHi)
// (CSC order) and emits every triple's block as runs over the shared C
// block. Every consumer — edge writers, counts, checksums, validation's
// passes, Materialize — is a sink on this loop.
func (g *Generator) generate(ctx context.Context, bLo, bHi, np, batchSize int, sink pipeline.Sink) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	parts, err := parallel.Partition(bHi-bLo, np)
	if err != nil {
		return err
	}
	n := g.c.Len()
	return parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		// emit hands block edges [lo, hi) at r's offset to the sink in runs
		// of at most batchSize edges.
		emit := func(r pipeline.Run, lo, hi int) error {
			for r.Lo = lo; r.Lo < hi; r.Lo = r.Hi {
				r.Hi = min(r.Lo+batchSize, hi)
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := sink.WriteRun(p, r); err != nil {
					return err
				}
			}
			return nil
		}
		for i := bLo + parts[p].Lo; i < bLo+parts[p].Hi; i++ {
			tb := g.b.Tr[i]
			r := pipeline.Run{Block: g.c, RowBase: int64(tb.Row) * g.mC, ColBase: int64(tb.Col) * g.nC}
			var err error
			if i == g.loopTriple {
				// The block holding the removed self-loop: its runs stop
				// short of the loop edge and resume after it.
				if err = emit(r, 0, g.loopEdge); err == nil {
					err = emit(r, g.loopEdge+1, n)
				}
			} else {
				err = emit(r, 0, n)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// CountEdges generates the whole graph with np workers into a Counter and a
// Checksum and returns the total emitted and its XOR checksum (row·31 + col
// per edge). Both folds are closed-form per run — the count adds run
// lengths, the checksum folds block-local terms without rebuilding
// coordinates — so this measures the generation loop, not per-edge work.
// CountEdges and CountShard run the identical pass, so the shard-checksum
// invariant — XOR of per-shard checksums equals the whole-graph checksum —
// rests on one fold. A cancelled ctx returns ctx.Err().
func (g *Generator) CountEdges(ctx context.Context, np int) (total int64, checksum int64, err error) {
	cnt, cks := pipeline.NewCounter(np), pipeline.NewChecksum(np)
	if err := g.StreamTo(ctx, np, 0, pipeline.Tee(cnt, cks)); err != nil {
		return 0, 0, err
	}
	return cnt.Total(), cks.Sum(), nil
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
// computes Ap = Bp ⊗ C in memory, here as a sink on the generation loop
// that stores each worker's edges with re-based columns. Empty workers
// produce a Part with a 0-column Ap.
func (g *Generator) Materialize(ctx context.Context, np int) ([]Part, error) {
	parts, err := parallel.Partition(g.b.NNZ(), np)
	if err != nil {
		return nil, err
	}
	out := make([]Part, np)
	cols := make([]int, np)
	for p, r := range parts {
		out[p].Worker = p
		if r.Len() == 0 {
			continue
		}
		// CSC order: the worker's first triple holds its smallest column,
		// its last the largest.
		minCol, maxCol := g.b.Tr[r.Lo].Col, g.b.Tr[r.Hi-1].Col
		if cols[p], err = sparse.MulDim(maxCol-minCol+1, int(g.nC)); err != nil {
			return nil, fmt.Errorf("gen: worker %d column band [%d, %d]: %w", p, minCol, maxCol, err)
		}
		out[p].ColOffset = minCol
	}
	tr := make([][]sparse.Triple[int64], np)
	err = g.StreamTo(ctx, np, 0, pipeline.Func(func(p int, batch []Edge) error {
		colBase := int64(out[p].ColOffset) * g.nC
		for _, e := range batch {
			tr[p] = append(tr[p], sparse.Triple[int64]{Row: int(e.Row), Col: int(e.Col - colBase), Val: e.Val})
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	for p := range out {
		if out[p].Ap, err = sparse.NewCOO(int(g.mA), cols[p], tr[p]); err != nil {
			return nil, err
		}
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
