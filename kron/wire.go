package kron

import (
	"context"
	"fmt"
	"io"

	"repro/internal/graphio"
)

// --- The binary wire format -----------------------------------------------
//
// The KRNB framed binary encoding is the wire-speed alternative to the TSV
// and MatrixMarket text streams: a self-describing header carrying the
// design-time exact edge count, delta-varint frames, and a trailer carrying
// the actual count, the XOR content checksum every other layer folds, and a
// CRC-32C of every byte — so a complete stream reconciles against its
// design (Checksum sinks, shard plans, job checksums) and a truncated or
// damaged one is detected on read. A stream sends each shared C block once
// and each run over it as a short reference. See internal/graphio for the
// byte-level layout.

// BinaryEncoding is the type of NewBinaryEdgeWriter's encoding argument
// from when KRNB had a second, fixed-width encoding; delta is the only one
// now. Kept for callers written against that API.
type BinaryEncoding uint8

// BinaryDelta is the KRNB encoding: zig-zag varint deltas, with block and
// run frames for shared blocks.
const BinaryDelta BinaryEncoding = 0

// BinaryEdgeWriter streams edges in the KRNB framed binary format; it is an
// EdgeWriter (ready for Writer) and a Finisher.
type BinaryEdgeWriter = graphio.BinaryEdgeWriter

// NewBinaryEdgeWriter writes the KRNB header for a stream of exactly nnz
// edges (pass nnz < 0 when unknown, e.g. a per-worker chunk) and returns the
// encoder. Call Finish — directly, or implicitly via a Writer sink's Close —
// after the last edge to emit the count-and-checksum trailer. enc must be
// BinaryDelta.
func NewBinaryEdgeWriter(w io.Writer, nnz int64, enc BinaryEncoding) (*BinaryEdgeWriter, error) {
	if enc != BinaryDelta {
		return nil, fmt.Errorf("kron: unknown binary encoding %d (delta is the only encoding)", enc)
	}
	return graphio.NewBinaryEdgeWriter(w, nnz)
}

// Finisher is implemented by edge writers whose format has an explicit
// end-of-stream marker; pipeline Writer sinks finish them on Close.
type Finisher = graphio.Finisher

// BinaryInfo reports what a complete binary stream declared about itself:
// header nnz (-1 if unknown), and the trailer's actual edge count and XOR
// content checksum (the CRC is checked, not reported).
type BinaryInfo = graphio.BinaryInfo

// ReadBinary decodes a KRNB binary edge stream, calling emit with batches of
// edges in stream order (the batch is reused across calls). It keeps each
// block the stream sends — 8 bytes per edge, at most 8 MB for a service
// job at the default MaxCNNZ — and expands every run from it. The stream
// is verified end to end — magic, payload, block and run references,
// trailer count, checksum and CRC, and completeness when the header
// declares nnz; failures wrap ErrBinaryTruncated or ErrBinaryCorrupt. ctx
// is checked once per frame.
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
// sink receives is a slice of one shared, immutable C block. The KRNB
// encoding puts that structure on the wire: BinaryEdgeWriter (through
// Writer) sends the block once, as one copy of delta records the block
// renders on first use, and each run as a run frame naming the block, its
// sub-range and its offset; ReadBinary expands each run from its decoded
// copy of the block with the same closed-form step. SetBlockReplay(false)
// encodes the block's records edge by edge instead — the byte-for-byte
// oracle the replay is tested against.
