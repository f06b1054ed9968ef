package kron

import (
	"context"
	"io"

	"repro/internal/graphio"
)

// --- The binary wire format -----------------------------------------------
//
// The KRNB framed binary encoding is the wire-speed alternative to the TSV
// and MatrixMarket text streams: a self-describing header carrying the
// design-time exact edge count, delta-varint or fixed-width frames, and a
// trailer carrying the actual count plus the XOR content checksum every
// other layer folds — so a complete stream reconciles against its design
// (Checksum sinks, shard plans, job checksums) and a truncated or corrupted
// one is detected on read. See internal/graphio for the byte-level layout.

// BinaryEncoding selects the payload encoding of a binary edge stream.
type BinaryEncoding = graphio.BinaryEncoding

const (
	// BinaryDelta encodes edges as zig-zag varint deltas — the compact wire
	// default (a band-ordered stream costs a few bytes per edge).
	BinaryDelta = graphio.BinaryDelta
	// BinaryFixed encodes edges as three little-endian int64s — widest but
	// fastest; whole batches move to the wire as single memory copies.
	BinaryFixed = graphio.BinaryFixed
)

// BinaryEdgeWriter streams edges in the KRNB framed binary format; it is an
// EdgeWriter (ready for Writer/PerWorker compositions) and a Finisher.
type BinaryEdgeWriter = graphio.BinaryEdgeWriter

// NewBinaryEdgeWriter writes the KRNB header for a stream of exactly nnz
// edges (pass nnz < 0 when unknown, e.g. a per-worker chunk) and returns the
// encoder. Call Finish — directly, or implicitly via a Writer sink's Close —
// after the last edge to emit the count-and-checksum trailer.
func NewBinaryEdgeWriter(w io.Writer, nnz int64, enc BinaryEncoding) (*BinaryEdgeWriter, error) {
	return graphio.NewBinaryEdgeWriter(w, nnz, enc)
}

// Finisher is implemented by edge writers whose format has an explicit
// end-of-stream marker; pipeline Writer sinks finish them on Close.
type Finisher = graphio.Finisher

// BinaryInfo reports what a complete binary stream declared about itself:
// header nnz (-1 if unknown), encoding, and the trailer's actual edge count
// and XOR content checksum.
type BinaryInfo = graphio.BinaryInfo

// ReadBinary decodes a KRNB binary edge stream, calling emit with batches of
// edges in stream order (the batch is reused across calls). The stream is
// verified end to end — magic, payload, trailer count and checksum, and
// completeness when the header declares nnz; failures wrap
// ErrBinaryTruncated or ErrBinaryCorrupt. ctx is checked once per frame.
func ReadBinary(ctx context.Context, r io.Reader, emit func(batch []Edge) error) (*BinaryInfo, error) {
	return graphio.ReadBinary(ctx, r, emit)
}

// Binary stream error classes, for errors.Is on ReadBinary failures.
var (
	// ErrBinaryTruncated marks a stream that ended before its trailer.
	ErrBinaryTruncated = graphio.ErrBinaryTruncated
	// ErrBinaryCorrupt marks a stream whose bytes are inconsistent.
	ErrBinaryCorrupt = graphio.ErrBinaryCorrupt
)

// --- Block replay ------------------------------------------------------------
//
// K = B ⊗ C repeats C's edge pattern once per B nonzero, shifted by a
// constant block offset, and the generator streams it that way: every run a
// sink receives is a slice of one shared, immutable C block. The KRNB delta
// encoding of a run's edges after its first depends only on block-local
// coordinates, so the block renders those bytes once, on first use, and
// BinaryEdgeWriter (through Writer) replays each run as one frame: a count,
// the first edge, and one copy of the cached bytes. SetBlockReplay(false)
// encodes the same frames edge by edge instead — the byte-for-byte oracle
// the replay is tested against.
