package kron

import (
	"context"
	"io"

	"repro/internal/graphio"
	"repro/internal/pipeline"
)

// --- The edge-pipeline layer ----------------------------------------------
//
// Generation, measurement, and verification are all folds over one
// communication-free edge stream (the paper's central observation). The
// pipeline layer makes that a primitive: a Sink consumes the stream run by
// run, combinators compose sinks, and StreamTo drives any sink from one
// generation pass — stream to disk, count, and checksum simultaneously
// instead of generating three times:
//
//	cnt, sum := kron.NewCounter(np), kron.NewChecksum(np)
//	err := kron.StreamTo(ctx, g, np, 0,
//		kron.Tee(kron.Writer(kron.NewTSVEdgeWriter(f)), cnt, sum))
//	// cnt.Total() edges written; sum.Sum() reconciles against shard plans.

// Sink consumes a generator's edge stream run by run: each run is at most
// one batch of consecutive edges of the generator's shared, immutable C
// block at one B triple's block offset, so a sink may keep a run after the
// call. WriteRun is called concurrently across worker indices and serially
// within one, and Close runs exactly once when the pass ends. See
// internal/pipeline for the full contract.
type Sink = pipeline.Sink

// Run is one run of the stream: edges [Lo, Hi) of a shared block shifted
// by (RowBase, ColBase); Len, AppendEdges, and FoldChecksum read it.
type Run = pipeline.Run

// SinkFunc adapts an edge-batch callback to a Sink with a no-op Close: each
// run arrives expanded into a reused batch, which the callback owns only
// until it returns.
type SinkFunc = pipeline.Func

// Counter is a fold Sink counting streamed edges in closed form (a run adds
// its length) — CountEdges' total from a live stream.
type Counter = pipeline.Counter

// NewCounter returns a Counter for worker indices [0, np).
func NewCounter(np int) *Counter { return pipeline.NewCounter(np) }

// Checksum is a fold Sink computing a stream's XOR content checksum with
// the identical folding CountEdges and CountShard use, so live streams
// reconcile against their values and JobStatus checksums.
type Checksum = pipeline.Checksum

// NewChecksum returns a Checksum for worker indices [0, np).
func NewChecksum(np int) *Checksum { return pipeline.NewChecksum(np) }

// Tee returns a Sink fanning every run out to each of sinks in order —
// one generation pass, K consumers.
func Tee(sinks ...Sink) Sink { return pipeline.Tee(sinks...) }

// Writer wraps an EdgeWriter as a Sink: each run goes to the writer's
// WriteRun whole and worker-atomically; Close finishes (binary trailer) or
// flushes. With one worker the byte stream is deterministic. The text
// encoders format the run's edges straight from its block; the KRNB encoder
// sends the run's block once and the run as a short run frame.
func Writer(ew EdgeWriter) Sink { return pipeline.Writer(ew) }

// BlockRun is the name Run had when sinks took block runs and batches
// through two methods; kept for callers written against that API.
type BlockRun = Run

// BlockHandler is the two-callback sink adapter of that API. Every edge now
// arrives in a run, so the batch callback is never called; the sink hands
// each run to run.
func BlockHandler(batch SinkFunc, run func(p int, run BlockRun) error) Sink {
	return pipeline.RunFunc(run)
}

// EdgeWriter is the run-shaped edge-encoder contract (WriteRun, Comment,
// Flush) that the TSV, MatrixMarket and KRNB encoders share and Writer
// adapts into the pipeline.
type EdgeWriter = graphio.EdgeWriter

// TSVEdgeWriter streams "row\tcol\tval" lines.
type TSVEdgeWriter = graphio.TSVEdgeWriter

// NewTSVEdgeWriter returns a TSV edge stream over w, ready for Writer.
func NewTSVEdgeWriter(w io.Writer) *TSVEdgeWriter { return graphio.NewTSVEdgeWriter(w) }

// StreamTo generates the graph with np workers into a composable sink, as
// runs of at most batchSize edges (batchSize <= 0 selects
// DefaultStreamBatchSize). The sink is closed exactly once when the pass
// ends, on success and failure alike.
func StreamTo(ctx context.Context, g *Generator, np, batchSize int, sink Sink) error {
	return g.StreamTo(ctx, np, batchSize, sink)
}
