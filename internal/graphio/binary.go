package graphio

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The kron binary edge format ("KRNB") is the wire-speed alternative to the
// TSV and MatrixMarket text streams: a self-describing framed encoding whose
// header carries the design-time exact edge count (the paper's "nnz known
// before the first edge" property, exactly as the MatrixMarket size line
// does) and whose trailer carries the actual edge count, the XOR content
// checksum every other layer of the stack folds (s ^= row*31 + col per edge
// — pipeline.Checksum, CountEdges, shard plans), and a CRC-32C of every
// byte, so a complete stream is verifiable against its design and a
// truncated or damaged one is detected on read.
//
// The stream also carries the Kronecker structure itself: a shared block
// (for K = B ⊗ C, the edges of C) crosses the wire once, as a block frame,
// and each run over it is a run frame of a few varints that the reader
// expands from its copy of the block.
//
// Layout (varints are unsigned LEB128, signed values zig-zag folded):
//
//	header  := "KRNB" version:byte flags:byte [nnz:uvarint]
//	           version = 2
//	           flags bit0 = reserved: it marked the retired fixed-width
//	           encoding, and a stream that sets it is rejected
//	           flags bit1 = nnz field present (design-time exact edge count)
//	frame   := tag:uvarint body, tag = count<<2 | kind
//	  kind 0: reserved: it marked the retired edge frame (count
//	           records in global coordinates), and a stream that
//	           carries one is rejected
//	  kind 1, count >= 1: block frame: id:uvarint, then
//	           count records of the block in block-local coordinates;
//	           ids run 0, 1, 2, ... in stream order
//	  kind 2, count >= 1: run frame: id:uvarint
//	           lo:uvarint zig(rowBase) zig(colBase) = edges [lo, lo+count)
//	           of block id, each shifted by (rowBase, colBase)
//	  kind 3: reserved, corrupt
//	  tag 0:  trailer follows; no further frames
//	record  := zig(row-prevRow) zig(col-prevCol) zig(val)
//	           prev resets to (0, 0) at each block frame's start, so every
//	           block decodes independently; a row-major block makes the
//	           deltas 1-2 bytes each. A record's value must be 1 and its
//	           coordinates in [0, 2^31).
//	trailer := edges:uvarint checksum:uint64le crc:uint32le
//	           edges is the actual count written; checksum is the XOR fold
//	           (two's-complement bit pattern); crc is the CRC-32C
//	           (Castagnoli) of every stream byte before it. The stream ends
//	           immediately after the trailer: trailing bytes are corruption.
//
// A missing trailer means truncation (ErrBinaryTruncated); any mismatch —
// CRC, checksum, frame-vs-trailer count, header-nnz-vs-trailer count, a
// frame that would pass the header's nnz, trailing garbage — is corruption
// (ErrBinaryCorrupt).

// Binary format errors, wrapped by every ReadBinary failure so callers can
// distinguish a stream cut short from one that was damaged in flight.
var (
	// ErrBinaryTruncated marks a stream that ended before its trailer: the
	// writer never finished (crash, cancelled job, partial download).
	ErrBinaryTruncated = errors.New("graphio: truncated binary edge stream (no trailer)")
	// ErrBinaryCorrupt marks a stream whose bytes are inconsistent: bad
	// magic, unknown version, CRC, checksum or count mismatch, trailing
	// data.
	ErrBinaryCorrupt = errors.New("graphio: corrupt binary edge stream")
)

const (
	binaryMagic   = "KRNB"
	binaryVersion = 2

	// binFlagRetiredFixed marked the fixed-width encoding, which is no
	// longer written or read.
	binFlagRetiredFixed = 1 << 0
	binFlagHasNNZ       = 1 << 1

	// Frame kinds, the low two bits of a frame tag. Kind 0 marked the
	// retired edge frame, which is no longer written or read.
	frameRetiredEdges = 0
	frameBlock        = 1
	frameRun          = 2

	// blockCoordMax bounds a block frame's coordinates, so a decoder can
	// store each block edge as two int32s.
	blockCoordMax = 1<<31 - 1
)

// zigzag folds a signed value into the unsigned varint space (0, -1, 1, -2
// → 0, 1, 2, 3) so small deltas of either sign stay one byte.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is zigzag's inverse.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendDelta appends e's delta record relative to prev.
func appendDelta(dst []byte, prev, e Edge) []byte {
	dst = binary.AppendUvarint(dst, zigzag(e.Row-prev.Row))
	dst = binary.AppendUvarint(dst, zigzag(e.Col-prev.Col))
	return binary.AppendUvarint(dst, zigzag(e.Val))
}

// castagnoli is the CRC-32C table of the trailer's byte-integrity check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter folds every byte written through it into a CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// Finisher is implemented by edge writers whose format has an explicit
// end-of-stream marker (the binary trailer). Drivers that own a complete
// stream call Finish once after the last edge; pipeline.Writer does so on
// Close, so sink compositions pick it up for free. Formats without a marker
// simply do not implement it.
type Finisher interface {
	// Finish writes the end-of-stream marker and flushes. Idempotent; no
	// edges may be written afterwards.
	Finish() error
}

// BinaryEdgeWriter streams runs in the KRNB framed binary format. The
// header — magic, version, flags, and the design-time exact edge count — is
// written at construction; each run becomes a run frame, preceded by its
// block's block frame the first time the stream meets the block
// (WriteRun), and Finish writes the trailer carrying the actual count, XOR
// checksum and CRC-32C. WriteRun is allocation-free at steady state.
type BinaryEdgeWriter struct {
	// w is the underlying writer behind the CRC: every byte passes through
	// it.
	w  crcWriter
	bw *bufio.Writer

	// scratch holds the frame being encoded.
	scratch []byte

	count    int64
	checksum int64
	finished bool

	// sent lists the blocks this stream has sent as block frames; a
	// block's index is its frame id. noReplay switches block frames to the
	// per-edge oracle encoder (see SetBlockReplay).
	sent     []*Block
	noReplay bool
}

// NewBinaryEdgeWriter writes the KRNB header for a stream of exactly nnz
// edges (the design-time count; pass nnz < 0 when it is not known, e.g. a
// per-worker chunk of a larger stream) and returns the edge encoder.
func NewBinaryEdgeWriter(w io.Writer, nnz int64) (*BinaryEdgeWriter, error) {
	b := &BinaryEdgeWriter{
		w:       crcWriter{w: w},
		scratch: make([]byte, 0, edgeChunk+64),
	}
	b.bw = bufio.NewWriter(&b.w)
	hdr := append(make([]byte, 0, 16), binaryMagic...)
	flags := byte(0)
	if nnz >= 0 {
		flags |= binFlagHasNNZ
	}
	hdr = append(hdr, binaryVersion, flags)
	if nnz >= 0 {
		hdr = binary.AppendUvarint(hdr, uint64(nnz))
	}
	if _, err := b.bw.Write(hdr); err != nil {
		return nil, err
	}
	return b, nil
}

// Comment discards the text: the binary format carries its end-of-stream
// state in the trailer (count + checksum), and readers reconcile those
// against the header's design-time nnz — the same "truncation is detectable
// without prose" property the MatrixMarket writer relies on.
func (b *BinaryEdgeWriter) Comment(string) error { return nil }

// Flush drains the internal buffer. The stream remains open for more runs;
// only Finish ends it.
func (b *BinaryEdgeWriter) Flush() error { return b.bw.Flush() }

// Finish writes the trailer — actual edge count, XOR checksum, and the
// CRC-32C of everything before it — and flushes. Idempotent: repeated calls
// (an explicit Finish followed by pipeline.Writer's Close, say) write one
// trailer.
func (b *BinaryEdgeWriter) Finish() error {
	if b.finished {
		return nil
	}
	b.finished = true
	var buf [2 * binary.MaxVarintLen64]byte
	out := buf[:0]
	out = binary.AppendUvarint(out, 0) // trailer tag
	out = binary.AppendUvarint(out, uint64(b.count))
	out = binary.LittleEndian.AppendUint64(out, uint64(b.checksum))
	if _, err := b.bw.Write(out); err != nil {
		return err
	}
	// Drain the buffer so the CRC has seen every byte before the CRC field.
	if err := b.bw.Flush(); err != nil {
		return err
	}
	if _, err := b.bw.Write(binary.LittleEndian.AppendUint32(out[:0], b.w.crc)); err != nil {
		return err
	}
	return b.bw.Flush()
}

// Count returns the edges written so far — after Finish, the value the
// trailer carries.
func (b *BinaryEdgeWriter) Count() int64 { return b.count }

// Checksum returns the XOR content fold of the edges written so far.
func (b *BinaryEdgeWriter) Checksum() int64 { return b.checksum }

// BinaryInfo reports what a complete binary stream declared about itself.
type BinaryInfo struct {
	// NNZ is the header's design-time exact edge count, -1 when the writer
	// did not know it (per-worker chunks of a larger stream).
	NNZ int64
	// Edges is the trailer's actual edge count.
	Edges int64
	// Checksum is the trailer's XOR content fold, directly comparable to
	// pipeline.Checksum sums, CountEdges, and shard-plan checksums.
	Checksum int64
}

// readBatchSize bounds the reader's emit batch, so a run frame's count
// never forces a large allocation: expansion emits as the batch fills.
const readBatchSize = 4096

// blockEdge is one decoded block edge. Block frames carry only values of 1
// and coordinates below 2^31, so 8 bytes hold an edge: a block of the
// default C-side bound (kron.DefaultMaxCNNZ, 2^20 edges) costs a client
// 8 MB.
type blockEdge struct{ row, col int32 }

// blockChunk is the length of the block table's storage chunks.
const blockChunk = 4096

// blockTable holds every block a stream has sent: their edges back to back
// in chunks of blockChunk edges, each allocated when the first record that
// needs it has decoded, and where each block ends. A frame's declared count
// therefore buys no memory ahead of the bytes that carry its records,
// beyond the one chunk being filled, and a large block is never copied to
// grow.
type blockTable struct {
	chunks [][]blockEdge
	n      int   // edges decoded into the table
	ends   []int // block i is table edges [ends[i-1], ends[i]), ends[-1] = 0
}

// span returns where block id starts in the table and how many edges it
// holds.
func (t *blockTable) span(id uint64) (start, n int) {
	if id > 0 {
		start = t.ends[id-1]
	}
	return start, t.ends[id] - start
}

// ReadBinary decodes a KRNB binary edge stream, calling emit with batches of
// decoded edges in stream order (the batch is reused across calls — the
// pipeline ownership contract). It keeps every block frame's edges and
// expands each run frame straight into the emit batch. It verifies the
// stream end to end: magic and version, payload decode, block and run
// references, the trailer's count, XOR checksum and CRC-32C against what
// was actually read, and — when the header carries the design-time nnz —
// that the stream is complete and that no frame passes it (checked before
// the frame is decoded, so an over-long stream emits no excess edges). A
// stream without a trailer returns ErrBinaryTruncated; any inconsistency,
// a retired edge frame included, returns ErrBinaryCorrupt. ctx is checked
// once per frame (nil means never cancelled); emit errors abort the read.
func ReadBinary(ctx context.Context, r io.Reader, emit func(batch []Edge) error) (*BinaryInfo, error) {
	d := &binReader{br: bufio.NewReaderSize(r, 1<<16)}
	var hdr [6]byte
	if err := d.readFull(hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBinaryCorrupt, err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBinaryCorrupt, hdr[:4])
	}
	if hdr[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBinaryCorrupt, hdr[4], binaryVersion)
	}
	flags := hdr[5]
	if flags&binFlagRetiredFixed != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x (fixed-width streams are no longer read)", ErrBinaryCorrupt, flags)
	}
	if flags&^binFlagHasNNZ != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrBinaryCorrupt, flags)
	}
	info := &BinaryInfo{NNZ: -1}
	if flags&binFlagHasNNZ != 0 {
		nnz, err := d.readUvarint()
		if err != nil || nnz > 1<<62 {
			return nil, fmt.Errorf("%w: bad header nnz", ErrBinaryCorrupt)
		}
		info.NNZ = int64(nnz)
	}

	out := &emitter{emit: emit, batch: make([]Edge, 0, readBatchSize)}
	var (
		blocks blockTable
		framed uint64 // edges of every run frame read so far
		done   <-chan struct{}
	)
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		tag, err := d.readUvarint()
		if err != nil {
			if err == io.EOF {
				return nil, ErrBinaryTruncated
			}
			return nil, frameError(err, "frame tag")
		}
		if tag == 0 {
			break // trailer
		}
		kind, n := tag&3, tag>>2
		switch {
		case kind == frameRetiredEdges:
			return nil, fmt.Errorf("%w: frame tag %#x is a retired edge frame (edge frames are no longer read)", ErrBinaryCorrupt, tag)
		case n == 0 || kind > frameRun:
			return nil, fmt.Errorf("%w: bad frame tag %#x", ErrBinaryCorrupt, tag)
		case kind == frameBlock:
			id, err := d.readUvarint()
			if err != nil {
				return nil, frameError(err, "block frame")
			}
			if id != uint64(len(blocks.ends)) {
				return nil, fmt.Errorf("%w: block frame id %d, want %d", ErrBinaryCorrupt, id, len(blocks.ends))
			}
			if err := d.readBlockFrame(n, &blocks); err != nil {
				return nil, err
			}
			continue
		case info.NNZ >= 0 && n > uint64(info.NNZ)-framed:
			return nil, fmt.Errorf("%w: frame of %d edges passes the header's %d after %d", ErrBinaryCorrupt, n, info.NNZ, framed)
		}
		var f [4]uint64 // id, lo, zig(rowBase), zig(colBase)
		if err := d.readUvarints(f[:]); err != nil {
			return nil, frameError(err, "run frame")
		}
		if f[0] >= uint64(len(blocks.ends)) {
			return nil, fmt.Errorf("%w: run frame names block %d, %d defined", ErrBinaryCorrupt, f[0], len(blocks.ends))
		}
		start, size := blocks.span(f[0])
		if f[1] > uint64(size) || n > uint64(size)-f[1] {
			return nil, fmt.Errorf("%w: run [%d, +%d) passes block %d's %d edges", ErrBinaryCorrupt, f[1], n, f[0], size)
		}
		framed += n
		if err := out.expand(&blocks, start+int(f[1]), int(n), unzigzag(f[2]), unzigzag(f[3])); err != nil {
			return nil, err
		}
	}
	if err := out.flush(); err != nil {
		return nil, err
	}
	edges, err := d.readUvarint()
	if err != nil {
		return nil, frameError(err, "trailer")
	}
	var sumBytes [8]byte
	if err := d.readFull(sumBytes[:]); err != nil {
		return nil, fmt.Errorf("%w: short trailer checksum", ErrBinaryTruncated)
	}
	crc := d.crc
	var crcBytes [4]byte
	if _, err := io.ReadFull(d.br, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("%w: short trailer CRC", ErrBinaryTruncated)
	}
	if got := binary.LittleEndian.Uint32(crcBytes[:]); got != crc {
		return nil, fmt.Errorf("%w: trailer CRC %#08x, stream hashes to %#08x", ErrBinaryCorrupt, got, crc)
	}
	if edges > 1<<62 || int64(edges) != out.seen {
		return nil, fmt.Errorf("%w: trailer declares %d edges, stream carried %d", ErrBinaryCorrupt, edges, out.seen)
	}
	info.Edges = int64(edges)
	info.Checksum = int64(binary.LittleEndian.Uint64(sumBytes[:]))
	if info.Checksum != out.sum {
		return nil, fmt.Errorf("%w: trailer checksum %#x, stream folds to %#x", ErrBinaryCorrupt, uint64(info.Checksum), uint64(out.sum))
	}
	if info.NNZ >= 0 && info.NNZ != out.seen {
		return nil, fmt.Errorf("%w: header declares exactly %d edges, stream carried %d (incomplete stream?)", ErrBinaryCorrupt, info.NNZ, out.seen)
	}
	if _, err := d.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after trailer", ErrBinaryCorrupt)
	}
	return info, nil
}

// emitter is ReadBinary's output side: the emit batch, and the count and
// XOR fold of the edges it has emitted.
type emitter struct {
	emit  func(batch []Edge) error
	batch []Edge
	seen  int64
	sum   int64
}

// flush emits the batch and empties it.
func (o *emitter) flush() error {
	if len(o.batch) == 0 {
		return nil
	}
	o.seen += int64(len(o.batch))
	err := o.emit(o.batch)
	o.batch = o.batch[:0]
	return err
}

// expand appends table edges [lo, lo+n), shifted by (rowBase, colBase),
// emitting as the batch fills. It takes the closed-form step WriteRun
// takes: each edge is the block edge plus the offset, and its checksum
// term the block edge's plus the offset's, folded as the edge is written.
func (o *emitter) expand(blocks *blockTable, lo, n int, rowBase, colBase int64) error {
	base := rowBase*31 + colBase
	for i, end := lo, lo+n; i < end; {
		if len(o.batch) == cap(o.batch) {
			if err := o.flush(); err != nil {
				return err
			}
		}
		chunk := blocks.chunks[i/blockChunk][i%blockChunk:]
		src := chunk[:min(len(chunk), end-i, cap(o.batch)-len(o.batch))]
		at := len(o.batch)
		o.batch = o.batch[:at+len(src)]
		out, sum := o.batch[at:][:len(src)], o.sum
		for k, e := range src {
			r, c := int64(e.row), int64(e.col)
			out[k] = Edge{Row: rowBase + r, Col: colBase + c, Val: 1}
			sum ^= base + r*31 + c
		}
		o.sum = sum
		i += len(src)
	}
	return nil
}

// frameError classifies a failed varint read inside a frame or the
// trailer: the input ending is truncation, anything else corruption.
func frameError(err error, where string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s cut short", ErrBinaryTruncated, where)
	}
	return fmt.Errorf("%w: bad %s varint: %v", ErrBinaryCorrupt, where, err)
}

// binReader is ReadBinary's input: a buffered reader whose consumed bytes
// are folded into the CRC-32C the trailer is checked against. Every read
// goes through readFull or consume, so bytes the buffer has read ahead are
// not hashed until they are decoded.
type binReader struct {
	br  *bufio.Reader
	crc uint32
}

// window returns the buffered bytes not yet consumed.
func (d *binReader) window() []byte {
	win, _ := d.br.Peek(d.br.Buffered())
	return win
}

// consume hashes and discards the first n bytes of win, the current window.
func (d *binReader) consume(win []byte, n int) {
	d.crc = crc32.Update(d.crc, castagnoli, win[:n])
	d.br.Discard(n) // n bytes are buffered, so Discard cannot fail
}

// readFull fills p from the stream and hashes what it read.
func (d *binReader) readFull(p []byte) error {
	n, err := io.ReadFull(d.br, p)
	d.crc = crc32.Update(d.crc, castagnoli, p[:n])
	return err
}

// readUvarint decodes one varint, with binary.ReadUvarint's errors.
func (d *binReader) readUvarint() (uint64, error) {
	x, win, i, err := d.uvarint(d.window(), 0)
	if err == nil {
		d.consume(win, i)
	}
	return x, err
}

// readUvarints decodes len(dst) consecutive varints.
func (d *binReader) readUvarints(dst []uint64) error {
	win, i := d.window(), 0
	for k := range dst {
		var err error
		if dst[k], win, i, err = d.uvarint(win, i); err != nil {
			return err
		}
	}
	d.consume(win, i)
	return nil
}

// readBlockFrame decodes a block frame's n delta records onto the end of
// the block table as its next block; prev starts at (0, 0), per the format.
// It decodes straight out of the reader's buffered window into the table's
// chunks and consumes what it decoded at once. The common record of a
// row-major block, a one-byte row delta and value around a column delta of
// one or two bytes, decodes inline with no branch on its length. Any other
// record, including one cut off by the window's end, goes through
// deltaRecord.
func (d *binReader) readBlockFrame(n uint64, t *blockTable) error {
	win := d.window()
	i := 0
	var free []blockEdge // the last chunk's unfilled tail
	if t.n%blockChunk != 0 {
		free = t.chunks[len(t.chunks)-1][t.n%blockChunk:]
	}
	k := 0 // next slot of free
	var row, col int64
	for left := n; left > 0; left-- {
		var dr, dc, dv uint64
		if r := win[i:]; len(r) >= 4 && r[0]|r[1+int(r[1]>>7)]|r[2+int(r[1]>>7)] < 0x80 {
			c := int(r[1] >> 7) // 1 when the column delta takes two bytes
			dr = uint64(r[0])
			dc = uint64(r[1]&0x7f) | uint64(r[1+c])<<(7*c)
			dv = uint64(r[2+c])
			i += 3 + c
		} else {
			var err error
			if dr, dc, dv, win, i, err = d.deltaRecord(win, i); err != nil {
				return err
			}
		}
		row += unzigzag(dr)
		col += unzigzag(dc)
		if dv != 2 || uint64(row) > blockCoordMax || uint64(col) > blockCoordMax {
			return fmt.Errorf("%w: block edge (%d, %d) = %d outside a block's 0/1 pattern", ErrBinaryCorrupt, row, col, unzigzag(dv))
		}
		if k == len(free) {
			free, k = make([]blockEdge, blockChunk), 0
			t.chunks = append(t.chunks, free)
		}
		free[k] = blockEdge{int32(row), int32(col)}
		k++
	}
	t.n += int(n)
	t.ends = append(t.ends, t.n)
	d.consume(win, i)
	return nil
}

// deltaRecord decodes one record's three varints at win[i:] with
// binary.Uvarint, where win is the buffered window and nothing before i
// has been consumed yet. It returns the window and position to continue
// from. All three varints are read before any error is classified, as a
// byte-at-a-time reader would: if the input ends among them the frame is
// truncated, otherwise an overflowing varint is corruption.
func (d *binReader) deltaRecord(win []byte, i int) (dr, dc, dv uint64, _ []byte, _ int, _ error) {
	var v [3]uint64
	var errs [3]error
	for k := range v {
		v[k], win, i, errs[k] = d.uvarint(win, i)
	}
	if err := errors.Join(errs[:]...); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, 0, win, i, fmt.Errorf("%w: delta frame cut short", ErrBinaryTruncated)
		}
		return 0, 0, 0, win, i, fmt.Errorf("%w: bad delta varint: %v", ErrBinaryCorrupt, err)
	}
	return v[0], v[1], v[2], win, i, nil
}

// errVarintOverflow marks a varint longer than any uint64 needs.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// uvarint decodes the varint at win[i:] like deltaRecord. A varint cut off
// by the window's end refills the window: the decoded prefix is consumed,
// which moves the partial varint to the front of the buffer, and at least
// one more byte is read. The errors are binary.ReadUvarint's: io.EOF when
// the input ends before the varint, io.ErrUnexpectedEOF when it ends inside
// it, the reader's own error, or errVarintOverflow after ten bytes, which
// are skipped.
func (d *binReader) uvarint(win []byte, i int) (uint64, []byte, int, error) {
	for {
		x, m := binary.Uvarint(win[i:])
		switch {
		case m > 0:
			return x, win, i + m, nil
		case m < 0 || len(win)-i >= binary.MaxVarintLen64:
			return 0, win, i + binary.MaxVarintLen64, errVarintOverflow
		}
		rest := len(win) - i
		d.consume(win, i)
		_, err := d.br.Peek(rest + 1)
		win = d.window()
		if err != nil {
			if err == io.EOF && rest > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, win, 0, err
		}
		i = 0
	}
}
