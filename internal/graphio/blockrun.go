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
// Inside the KRNB delta encoding the intra-block deltas
// zig(row[i]-row[i-1]) zig(col[i]-col[i-1]) depend only on block-local
// coordinates — the offset cancels out of every difference — and the value
// bytes depend only on C's values. The delta records of a run's edges after
// its first are therefore the same bytes at every offset: the block renders
// them once, on first use, with per-edge record offsets so any sub-range can
// be sliced out. A replayed frame is the run's count header, its first edge
// encoded absolutely (frames reset prev to (0,0), so "absolute" and "delta
// from frame start" coincide), and one Write of the cached slice. The
// trailer's XOR checksum folds without rebuilding coordinates:
//
//	(rowBase+r)*31 + (colBase+c) = (rowBase*31 + colBase) + (r*31 + c)
//
// holds exactly under two's-complement wraparound, so the block renders the
// per-edge term r*31 + c once, on first use, and a run adds only its
// offset's constant.

// Block is an immutable edge pattern in block-local coordinates, row-major
// (for K = B ⊗ C: the edges of C). It is safe for concurrent use.
type Block struct {
	edges []Edge

	foldOnce sync.Once
	// pre[i] = edges[i].Row*31 + edges[i].Col, the offset-invariant part of
	// the checksum fold: a third of the edges' bytes, so folds over blocks
	// larger than the cache read a third of the memory.
	pre []int64

	deltaOnce sync.Once
	// tail holds the delta record of every edge after the first, each
	// relative to its predecessor: edge i's record (i ≥ 1) is
	// tail[offs[i]:offs[i+1]], and offs[len(edges)] = len(tail).
	tail []byte
	offs []int
}

// NewBlock returns a block over edges. The block owns the slice from here
// on; the caller must not modify it.
func NewBlock(edges []Edge) *Block { return &Block{edges: edges} }

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

// deltaTail returns the cached delta records of edges lo+1 .. hi-1, rendering
// the block's records on first use.
func (b *Block) deltaTail(lo, hi int) []byte {
	b.deltaOnce.Do(b.renderDelta)
	return b.tail[b.offs[lo+1]:b.offs[hi]]
}

func (b *Block) renderDelta() {
	n := len(b.edges)
	b.offs = make([]int, n+1)
	b.tail = make([]byte, 0, 3*n)
	for i := 1; i < n; i++ {
		prev, e := b.edges[i-1], b.edges[i]
		b.offs[i] = len(b.tail)
		b.tail = binary.AppendUvarint(b.tail, zigzag(e.Row-prev.Row))
		b.tail = binary.AppendUvarint(b.tail, zigzag(e.Col-prev.Col))
		b.tail = binary.AppendUvarint(b.tail, zigzag(e.Val))
	}
	if n > 0 {
		b.offs[n] = len(b.tail)
	}
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

// SetBlockReplay toggles the delta replay fast path. With replay disabled,
// WriteRun encodes the run per edge through the same frame boundary the
// replay path uses, producing byte-identical output — the oracle the parity
// suite pins the replay against. Replay is on by default.
func (b *BinaryEdgeWriter) SetBlockReplay(enabled bool) { b.noReplay = !enabled }

// WriteRun writes the run's edges. In the delta encoding the run becomes one
// self-contained frame: pending per-edge writes are framed first (frame
// order = edge order), then the frame-count header, the first edge absolute,
// and the block's cached delta records for the rest; the trailer fold is
// the closed-form FoldChecksum. The fixed encoding has no offset-invariant
// bytes to replay, so it expands the run and writes it as a batch. Zero
// allocations at steady state.
func (b *BinaryEdgeWriter) WriteRun(r Run) error {
	if b.enc == BinaryFixed {
		b.runBuf = r.AppendEdges(b.runBuf[:0])
		return b.WriteEdges(b.runBuf)
	}
	if b.finished {
		return fmt.Errorf("graphio: WriteRun after Finish on binary edge stream")
	}
	n := r.Len()
	if n == 0 {
		return nil
	}
	b.checksum = r.FoldChecksum(b.checksum)
	b.count += int64(n)
	if err := b.emitFrame(); err != nil {
		return err
	}
	if b.noReplay {
		for _, e := range r.Local() {
			b.appendEdge(r.RowBase+e.Row, r.ColBase+e.Col, e.Val)
		}
		return b.emitFrame()
	}
	first := r.Block.edges[r.Lo]
	sc := binary.AppendUvarint(b.scratch[:0], uint64(n))
	sc = binary.AppendUvarint(sc, zigzag(r.RowBase+first.Row))
	sc = binary.AppendUvarint(sc, zigzag(r.ColBase+first.Col))
	sc = binary.AppendUvarint(sc, zigzag(first.Val))
	b.scratch = sc[:0]
	if _, err := b.bw.Write(sc); err != nil {
		return err
	}
	// bufio hands writes at or above its buffer size straight to the
	// underlying writer, so this is the one memcpy (or none) a run costs.
	_, err := b.bw.Write(r.Block.deltaTail(r.Lo, r.Hi))
	return err
}
