package graphio

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Shared-block runs.
//
// A Kronecker product K = B ⊗ C whose B values are all 1 (every star design
// is: star adjacencies hold only 1s) emits, for every nonzero of B, C's whole
// edge pattern shifted by a constant (rowBase, colBase) block offset. A Block
// holds that pattern once, immutable and shared by every generation worker;
// a Run names a contiguous slice of it at one offset. A Run is a small value
// that only points at its block, so a consumer may keep it after the call
// that delivered it returns (the service's async hand-off does).
//
// KRNB streams put the same structure on the wire: the first run over
// a block sends the block once, as a block frame of its delta records in
// block-local coordinates, and every run becomes a run frame naming the
// block, a sub-range and an offset. The block renders its records once, on
// first use, so a block frame is one Write of cached bytes and a run frame
// is a few varints. The trailer's XOR checksum folds without rebuilding
// coordinates:
//
//	(rowBase+r)*31 + (colBase+c) = (rowBase*31 + colBase) + (r*31 + c)
//
// holds exactly under two's-complement wraparound, so the block renders the
// per-edge term r*31 + c once, on first use, and a run adds only its
// offset's constant.

// Block is an immutable 0/1 edge pattern in block-local coordinates,
// row-major (for K = B ⊗ C: the edges of C). It is safe for concurrent use.
type Block struct {
	edges []Edge

	foldOnce sync.Once
	// pre[i] = edges[i].Row*31 + edges[i].Col, the offset-invariant part of
	// the checksum fold: a third of the edges' bytes, so folds over blocks
	// larger than the cache read a third of the memory.
	pre []int64

	recOnce sync.Once
	// recs holds the delta record of every edge, edge 0 relative to (0, 0)
	// and each later edge relative to its predecessor: the payload of the
	// block's KRNB block frame.
	recs []byte
}

// NewBlock returns a block over edges. Every edge must have value 1 and
// coordinates in [0, 2^31): the 0/1 pattern a KRNB block frame carries and
// a decoder stores in 8 bytes per edge. Every generator C block is one. The
// block owns the slice from here on; the caller must not modify it.
func NewBlock(edges []Edge) (*Block, error) {
	for _, e := range edges {
		if e.Val != 1 || uint64(e.Row) > blockCoordMax || uint64(e.Col) > blockCoordMax {
			return nil, fmt.Errorf("graphio: block edge (%d, %d) = %d outside a block's 0/1 pattern in [0, 2^31)", e.Row, e.Col, e.Val)
		}
	}
	return &Block{edges: edges}, nil
}

// Len returns the number of edges in the block.
func (b *Block) Len() int { return len(b.edges) }

// foldTerms returns the checksum terms of every edge, rendering them on
// first use.
func (b *Block) foldTerms() []int64 {
	b.foldOnce.Do(func() {
		b.pre = make([]int64, len(b.edges))
		for i, e := range b.edges {
			b.pre[i] = e.Row*31 + e.Col
		}
	})
	return b.pre
}

// records returns the block frame payload, rendering it on first use.
func (b *Block) records() []byte {
	b.recOnce.Do(func() {
		recs := make([]byte, 0, 3*len(b.edges))
		var prev Edge
		for _, e := range b.edges {
			recs = appendDelta(recs, prev, e)
			prev = e
		}
		b.recs = recs
	})
	return b.recs
}

// Run is edges [Lo, Hi) of Block shifted by (RowBase, ColBase): block edge
// e becomes the global edge (RowBase+e.Row, ColBase+e.Col, e.Val).
type Run struct {
	Block            *Block
	Lo, Hi           int
	RowBase, ColBase int64
}

// Len returns the number of edges the run carries.
func (r Run) Len() int { return r.Hi - r.Lo }

// Local returns the run's edges in block-local coordinates. The slice is the
// shared block's memory: read it, never write it.
func (r Run) Local() []Edge { return r.Block.edges[r.Lo:r.Hi] }

// AppendEdges appends the run's edges in global coordinates.
func (r Run) AppendEdges(dst []Edge) []Edge {
	n := len(dst)
	dst = slices.Grow(dst, r.Len())[:n+r.Len()]
	out := dst[n:]
	for i, e := range r.Local() {
		out[i] = Edge{Row: r.RowBase + e.Row, Col: r.ColBase + e.Col, Val: e.Val}
	}
	return dst
}

// FoldChecksum folds the run's edges into an XOR content checksum (the
// stream fold, s ^= row*31 + col per edge) via the closed-form split: one
// add and one xor per edge, no coordinate reconstruction.
func (r Run) FoldChecksum(sum int64) int64 {
	base := r.RowBase*31 + r.ColBase
	for _, p := range r.Block.foldTerms()[r.Lo:r.Hi] {
		sum ^= base + p
	}
	return sum
}

// SetBlockReplay toggles the block replay fast path. With replay disabled,
// WriteRun emits the same block and run frames but encodes each block
// frame's records edge by edge instead of copying the block's cached bytes:
// byte-identical output, the oracle the parity suite pins the replay
// against. Replay is on by default.
func (b *BinaryEdgeWriter) SetBlockReplay(enabled bool) { b.noReplay = !enabled }

// WriteRun writes the run as one run frame, preceded by its block's block
// frame on the stream's first run over that block. The trailer fold is the
// closed-form FoldChecksum. Zero allocations at steady state.
func (b *BinaryEdgeWriter) WriteRun(r Run) error {
	if b.finished {
		return fmt.Errorf("graphio: WriteRun after Finish on binary edge stream")
	}
	if r.Len() == 0 {
		return nil
	}
	id := slices.Index(b.sent, r.Block)
	if id < 0 {
		id = len(b.sent)
		if err := b.writeBlockFrame(r.Block, id); err != nil {
			return err
		}
		b.sent = append(b.sent, r.Block)
	}
	b.checksum = r.FoldChecksum(b.checksum)
	b.count += int64(r.Len())
	sc := binary.AppendUvarint(b.scratch[:0], uint64(r.Len())<<2|frameRun)
	sc = binary.AppendUvarint(sc, uint64(id))
	sc = binary.AppendUvarint(sc, uint64(r.Lo))
	sc = binary.AppendUvarint(sc, zigzag(r.RowBase))
	sc = binary.AppendUvarint(sc, zigzag(r.ColBase))
	b.scratch = sc[:0]
	_, err := b.bw.Write(sc)
	return err
}

// writeBlockFrame sends blk as block id: the frame tag and id, then its
// records — one Write of the cached bytes, or, with replay disabled, each
// record encoded afresh through the scratch buffer.
func (b *BinaryEdgeWriter) writeBlockFrame(blk *Block, id int) error {
	sc := binary.AppendUvarint(b.scratch[:0], uint64(blk.Len())<<2|frameBlock)
	sc = binary.AppendUvarint(sc, uint64(id))
	if !b.noReplay {
		b.scratch = sc[:0]
		if _, err := b.bw.Write(sc); err != nil {
			return err
		}
		// bufio hands writes at or above its buffer size straight to the
		// underlying writer, so a large block costs one copy or none.
		_, err := b.bw.Write(blk.records())
		return err
	}
	var prev Edge
	for _, e := range blk.edges {
		sc = appendDelta(sc, prev, e)
		prev = e
		if len(sc) >= edgeChunk {
			if _, err := b.bw.Write(sc); err != nil {
				return err
			}
			sc = sc[:0]
		}
	}
	b.scratch = sc[:0]
	_, err := b.bw.Write(sc)
	return err
}
