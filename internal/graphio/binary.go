package graphio

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// The kron binary edge format ("KRNB") is the wire-speed alternative to the
// TSV and MatrixMarket text streams: a self-describing framed encoding whose
// header carries the design-time exact edge count (the paper's "nnz known
// before the first edge" property, exactly as the MatrixMarket size line
// does) and whose trailer carries the actual edge count plus the XOR content
// checksum every other layer of the stack folds (s ^= row*31 + col per edge
// — pipeline.Checksum, CountEdges, shard plans), so a complete stream is
// verifiable against its design and a truncated or bit-flipped one is
// detected on read.
//
// Layout (varints are unsigned LEB128, signed values zig-zag folded):
//
//	header  := "KRNB" version:byte flags:byte [nnz:uvarint]
//	           version = 1
//	           flags bit0 = fixed-width encoding (else delta-varint)
//	           flags bit1 = nnz field present (design-time exact edge count)
//	frame   := count:uvarint payload
//	           count >= 1: payload carries count edges
//	           count  = 0: trailer follows; no further frames
//	payload (delta) := per edge: zig(row-prevRow) zig(col-prevCol) zig(val)
//	           prev resets to (0, 0) at each frame start, so every frame
//	           decodes independently; band-ordered streams (rows banded,
//	           columns sorted within rows) make the deltas 1-2 bytes each
//	payload (fixed) := per edge: row:int64le col:int64le val:int64le
//	trailer := edges:uvarint checksum:uint64le
//	           edges is the actual count written; checksum is the XOR fold
//	           (two's-complement bit pattern). The stream ends immediately
//	           after the trailer: trailing bytes are corruption.
//
// A missing trailer means truncation (ErrBinaryTruncated); any mismatch —
// checksum, frame-vs-trailer count, header-nnz-vs-trailer count, trailing
// garbage — is corruption (ErrBinaryCorrupt).

// Binary format errors, wrapped by every ReadBinary failure so callers can
// distinguish a stream cut short from one that was damaged in flight.
var (
	// ErrBinaryTruncated marks a stream that ended before its trailer: the
	// writer never finished (crash, cancelled job, partial download).
	ErrBinaryTruncated = errors.New("graphio: truncated binary edge stream (no trailer)")
	// ErrBinaryCorrupt marks a stream whose bytes are inconsistent: bad
	// magic, unknown version, checksum or count mismatch, trailing data.
	ErrBinaryCorrupt = errors.New("graphio: corrupt binary edge stream")
)

// BinaryEncoding selects the payload encoding of a binary edge stream.
type BinaryEncoding uint8

const (
	// BinaryDelta encodes each edge as zig-zag varint deltas from the
	// previous edge — the compact wire default (a band-ordered stream costs
	// a few bytes per edge instead of 24).
	BinaryDelta BinaryEncoding = iota
	// BinaryFixed encodes each edge as three little-endian int64s. Widest
	// but fastest: on little-endian hardware whole batches are written (and
	// read) as single memory copies, so the encode cost is near zero and
	// streamed-to-wire throughput tracks the count-only engine.
	BinaryFixed
)

// String names the encoding as the CLI flags spell it.
func (e BinaryEncoding) String() string {
	if e == BinaryFixed {
		return "fixed"
	}
	return "delta"
}

const (
	binaryMagic   = "KRNB"
	binaryVersion = 1

	binFlagFixed  = 1 << 0
	binFlagHasNNZ = 1 << 1

	// edgeWireBytes is the fixed encoding's record size: three int64 fields.
	edgeWireBytes = 24

	// directWriteBytes is the fixed-encoding threshold above which a batch
	// payload bypasses the scratch buffer and is written straight from the
	// batch's own memory (little-endian hosts only): one frame header, one
	// Write, zero copies inside the encoder.
	directWriteBytes = 1 << 12
)

// Compile-time layout guards for the zero-copy fixed path: Edge must be
// exactly three consecutive int64s with no padding, or the direct cast of a
// batch to bytes would not be the wire encoding.
var (
	_ [unsafe.Sizeof(Edge{}) - edgeWireBytes]struct{}
	_ [edgeWireBytes - unsafe.Sizeof(Edge{})]struct{}
	_ [unsafe.Offsetof(Edge{}.Row) - 0]struct{}
	_ [unsafe.Offsetof(Edge{}.Col) - 8]struct{}
	_ [8 - unsafe.Offsetof(Edge{}.Col)]struct{}
	_ [unsafe.Offsetof(Edge{}.Val) - 16]struct{}
	_ [16 - unsafe.Offsetof(Edge{}.Val)]struct{}
)

// hostIsLittleEndian gates the zero-copy paths; big-endian hosts fall back
// to the portable per-field encoder, producing identical bytes.
var hostIsLittleEndian = func() bool {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 0x0102)
	return probe[0] == 0x02
}()

// edgesToBytes reinterprets a batch as its fixed-encoding wire bytes. Valid
// only on little-endian hosts (the layout guards above pin the record
// shape). The returned slice aliases the batch and must not outlive it.
func edgesToBytes(batch []Edge) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&batch[0])), len(batch)*edgeWireBytes)
}

// zigzag folds a signed value into the unsigned varint space (0, -1, 1, -2
// → 0, 1, 2, 3) so small deltas of either sign stay one byte.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is zigzag's inverse.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// foldChecksum is the stream-content fold shared with pipeline.Checksum,
// CountEdges, and shard plans: XOR of row*31 + col across all edges, so a
// binary trailer reconciles directly against ChecksumPlan and job checksums.
func foldChecksum(sum int64, batch []Edge) int64 {
	for _, e := range batch {
		sum ^= e.Row*31 + e.Col
	}
	return sum
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

// BinaryEdgeWriter streams edges in the KRNB framed binary format. The
// header — magic, version, flags, and the design-time exact edge count — is
// written at construction; frames are cut at batch boundaries (large
// batches) or when the pending payload fills a chunk (per-edge writes), and
// Finish writes the trailer carrying the actual count and XOR checksum.
// WriteEdges is allocation-free at steady state; in the fixed encoding on
// little-endian hosts a large batch goes to the underlying writer directly
// from the batch's memory, so the encode cost is one checksum fold and one
// Write.
type BinaryEdgeWriter struct {
	w   io.Writer
	bw  *bufio.Writer
	enc BinaryEncoding

	// scratch holds the encoded payload of the pending (not yet framed)
	// edges; pending counts them. Deltas reset at frame start, so prevRow
	// and prevCol track only the pending frame.
	scratch []byte
	pending int
	prevRow int64
	prevCol int64

	// hdrBuf is reused for frame-count varints; a stack array would be moved
	// to the heap on every call (bufio can pass large writes straight to the
	// underlying io.Writer interface), breaking the zero-alloc guarantee.
	hdrBuf [binary.MaxVarintLen64]byte

	count    int64
	checksum int64
	finished bool

	// noReplay switches WriteRun to the per-edge oracle encoder (see
	// SetBlockReplay); runBuf is WriteRun's expansion buffer in the fixed
	// encoding.
	noReplay bool
	runBuf   []Edge
}

// NewBinaryEdgeWriter writes the KRNB header for a stream of exactly nnz
// edges (the design-time count; pass nnz < 0 when it is not known, e.g. a
// per-worker chunk of a larger stream) and returns the edge encoder.
func NewBinaryEdgeWriter(w io.Writer, nnz int64, enc BinaryEncoding) (*BinaryEdgeWriter, error) {
	if enc != BinaryDelta && enc != BinaryFixed {
		return nil, fmt.Errorf("graphio: unknown binary encoding %d", enc)
	}
	b := &BinaryEdgeWriter{
		w:       w,
		bw:      bufio.NewWriter(w),
		enc:     enc,
		scratch: make([]byte, 0, edgeChunk+64),
	}
	hdr := append(make([]byte, 0, 16), binaryMagic...)
	flags := byte(0)
	if enc == BinaryFixed {
		flags |= binFlagFixed
	}
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

// emitFrame writes the pending edges as one frame: count header, then the
// encoded payload accumulated in scratch.
func (b *BinaryEdgeWriter) emitFrame() error {
	if b.pending == 0 {
		return nil
	}
	n := binary.PutUvarint(b.hdrBuf[:], uint64(b.pending))
	if _, err := b.bw.Write(b.hdrBuf[:n]); err != nil {
		return err
	}
	_, err := b.bw.Write(b.scratch)
	b.scratch = b.scratch[:0]
	b.pending = 0
	b.prevRow, b.prevCol = 0, 0
	return err
}

// appendEdge encodes one edge onto the pending frame's scratch payload.
func (b *BinaryEdgeWriter) appendEdge(row, col, val int64) {
	if b.enc == BinaryFixed {
		b.scratch = binary.LittleEndian.AppendUint64(b.scratch, uint64(row))
		b.scratch = binary.LittleEndian.AppendUint64(b.scratch, uint64(col))
		b.scratch = binary.LittleEndian.AppendUint64(b.scratch, uint64(val))
	} else {
		b.scratch = binary.AppendUvarint(b.scratch, zigzag(row-b.prevRow))
		b.scratch = binary.AppendUvarint(b.scratch, zigzag(col-b.prevCol))
		b.scratch = binary.AppendUvarint(b.scratch, zigzag(val))
		b.prevRow, b.prevCol = row, col
	}
	b.pending++
}

// WriteEdge encodes one edge; consecutive single-edge writes coalesce into
// chunk-sized frames.
func (b *BinaryEdgeWriter) WriteEdge(row, col, val int64) error {
	if b.finished {
		return fmt.Errorf("graphio: WriteEdge after Finish on binary edge stream")
	}
	b.appendEdge(row, col, val)
	b.count++
	b.checksum ^= row*31 + col
	if len(b.scratch) >= edgeChunk {
		return b.emitFrame()
	}
	return nil
}

// WriteEdges encodes a whole batch. In the fixed encoding on little-endian
// hosts a batch above the direct-write threshold becomes one frame written
// straight from the batch's memory — no encode, no copy; otherwise edges are
// appended to the pending frame and framed at chunk boundaries. Zero
// allocations at steady state on every path.
func (b *BinaryEdgeWriter) WriteEdges(batch []Edge) error {
	if b.finished {
		return fmt.Errorf("graphio: WriteEdges after Finish on binary edge stream")
	}
	if len(batch) == 0 {
		return nil
	}
	b.checksum = foldChecksum(b.checksum, batch)
	b.count += int64(len(batch))
	if b.enc == BinaryFixed && hostIsLittleEndian && len(batch)*edgeWireBytes >= directWriteBytes {
		// One frame, written from the batch's own memory. The pending frame
		// (if any) must go first to keep frame order = edge order.
		if err := b.emitFrame(); err != nil {
			return err
		}
		n := binary.PutUvarint(b.hdrBuf[:], uint64(len(batch)))
		if _, err := b.bw.Write(b.hdrBuf[:n]); err != nil {
			return err
		}
		// Bypass the bufio copy: flush what is buffered, then hand the cast
		// payload to the underlying writer in one call.
		if err := b.bw.Flush(); err != nil {
			return err
		}
		_, err := b.w.Write(edgesToBytes(batch))
		return err
	}
	for _, e := range batch {
		b.appendEdge(e.Row, e.Col, e.Val)
		if len(b.scratch) >= edgeChunk {
			if err := b.emitFrame(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Comment discards the text: the binary format carries its end-of-stream
// state in the trailer (count + checksum), and readers reconcile those
// against the header's design-time nnz — the same "truncation is detectable
// without prose" property the MatrixMarket writer relies on.
func (b *BinaryEdgeWriter) Comment(string) error { return nil }

// Flush frames any pending edges and drains the internal buffer. The stream
// remains open for more edges; only Finish ends it.
func (b *BinaryEdgeWriter) Flush() error {
	if err := b.emitFrame(); err != nil {
		return err
	}
	return b.bw.Flush()
}

// Finish writes the trailer — actual edge count and XOR checksum — and
// flushes. Idempotent: repeated calls (an explicit Finish followed by
// pipeline.Writer's Close, say) write one trailer.
func (b *BinaryEdgeWriter) Finish() error {
	if b.finished {
		return nil
	}
	if err := b.emitFrame(); err != nil {
		return err
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
	// Encoding is the payload encoding the stream used.
	Encoding BinaryEncoding
	// Edges is the trailer's actual edge count.
	Edges int64
	// Checksum is the trailer's XOR content fold, directly comparable to
	// pipeline.Checksum sums, CountEdges, and shard-plan checksums.
	Checksum int64
}

// readBatchSize bounds the reader's emit batch; corrupt frame counts can
// therefore never force a large allocation — decoding is incremental and
// runs out of input instead.
const readBatchSize = 4096

// ReadBinary decodes a KRNB binary edge stream, calling emit with batches of
// decoded edges in stream order (the batch is reused across calls — the
// pipeline ownership contract). It verifies the stream end to end: magic and
// version, payload decode, the trailer's count and XOR checksum against what
// was actually read, and — when the header carries the design-time nnz —
// that the stream is complete. A stream without a trailer returns
// ErrBinaryTruncated; any inconsistency returns ErrBinaryCorrupt. ctx is
// checked once per frame (nil means never cancelled); emit errors abort the
// read.
func ReadBinary(ctx context.Context, r io.Reader, emit func(batch []Edge) error) (*BinaryInfo, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBinaryCorrupt, err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBinaryCorrupt, hdr[:4])
	}
	if hdr[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBinaryCorrupt, hdr[4], binaryVersion)
	}
	flags := hdr[5]
	if flags&^(binFlagFixed|binFlagHasNNZ) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrBinaryCorrupt, flags)
	}
	info := &BinaryInfo{NNZ: -1, Encoding: BinaryDelta}
	if flags&binFlagFixed != 0 {
		info.Encoding = BinaryFixed
	}
	if flags&binFlagHasNNZ != 0 {
		nnz, err := binary.ReadUvarint(br)
		if err != nil || nnz > 1<<62 {
			return nil, fmt.Errorf("%w: bad header nnz", ErrBinaryCorrupt)
		}
		info.NNZ = int64(nnz)
	}

	var (
		batch    = make([]Edge, 0, readBatchSize)
		seen     int64
		checksum int64
		done     <-chan struct{}
	)
	if ctx != nil {
		done = ctx.Done()
	}
	flushEmit := func() error {
		if len(batch) == 0 {
			return nil
		}
		checksum = foldChecksum(checksum, batch)
		seen += int64(len(batch))
		err := emit(batch)
		batch = batch[:0]
		return err
	}
	for {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			if err == io.EOF {
				return nil, ErrBinaryTruncated
			}
			return nil, fmt.Errorf("%w: bad frame header: %v", ErrBinaryCorrupt, err)
		}
		if n == 0 {
			break // trailer
		}
		if info.Encoding == BinaryFixed {
			if err := readFixedFrame(br, int64(n), &batch, flushEmit); err != nil {
				return nil, err
			}
		} else {
			if err := readDeltaFrame(br, int64(n), &batch, flushEmit); err != nil {
				return nil, err
			}
		}
	}
	if err := flushEmit(); err != nil {
		return nil, err
	}
	edges, err := binary.ReadUvarint(br)
	if err != nil || edges > 1<<62 {
		return nil, fmt.Errorf("%w: short trailer", ErrBinaryTruncated)
	}
	var sumBytes [8]byte
	if _, err := io.ReadFull(br, sumBytes[:]); err != nil {
		return nil, fmt.Errorf("%w: short trailer checksum", ErrBinaryTruncated)
	}
	info.Edges = int64(edges)
	info.Checksum = int64(binary.LittleEndian.Uint64(sumBytes[:]))
	if info.Edges != seen {
		return nil, fmt.Errorf("%w: trailer declares %d edges, stream carried %d", ErrBinaryCorrupt, info.Edges, seen)
	}
	if info.Checksum != checksum {
		return nil, fmt.Errorf("%w: trailer checksum %#x, stream folds to %#x", ErrBinaryCorrupt, uint64(info.Checksum), uint64(checksum))
	}
	if info.NNZ >= 0 && info.NNZ != seen {
		return nil, fmt.Errorf("%w: header declares exactly %d edges, stream carried %d (incomplete stream?)", ErrBinaryCorrupt, info.NNZ, seen)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after trailer", ErrBinaryCorrupt)
	}
	return info, nil
}

// readFixedFrame decodes n fixed-width records, emitting as the batch fills.
// On little-endian hosts records are read straight into the batch's memory.
func readFixedFrame(br *bufio.Reader, n int64, batch *[]Edge, flush func() error) error {
	for n > 0 {
		if len(*batch) == cap(*batch) {
			if err := flush(); err != nil {
				return err
			}
		}
		take := min(n, int64(cap(*batch)-len(*batch)))
		lo := len(*batch)
		*batch = (*batch)[:lo+int(take)]
		dst := (*batch)[lo:]
		if hostIsLittleEndian {
			if _, err := io.ReadFull(br, edgesToBytes(dst)); err != nil {
				*batch = (*batch)[:lo]
				return fmt.Errorf("%w: fixed frame cut short: %v", ErrBinaryTruncated, err)
			}
		} else {
			var rec [edgeWireBytes]byte
			for i := range dst {
				if _, err := io.ReadFull(br, rec[:]); err != nil {
					*batch = (*batch)[:lo+i]
					return fmt.Errorf("%w: fixed frame cut short: %v", ErrBinaryTruncated, err)
				}
				dst[i] = Edge{
					Row: int64(binary.LittleEndian.Uint64(rec[0:8])),
					Col: int64(binary.LittleEndian.Uint64(rec[8:16])),
					Val: int64(binary.LittleEndian.Uint64(rec[16:24])),
				}
			}
		}
		n -= take
	}
	return nil
}

// readDeltaFrame decodes n delta-varint records; prev resets at frame start
// per the format, so each frame stands alone. It decodes straight out of the
// reader's buffered window and consumes what it decoded with one Discard.
// The common record of a band-ordered stream, a one-byte row delta and
// value around a column delta of one or two bytes, decodes inline with no
// branch on its length. Any other record, including one cut off by the
// window's end, goes through deltaRecord.
func readDeltaFrame(br *bufio.Reader, n int64, batch *[]Edge, flush func() error) error {
	win, _ := br.Peek(br.Buffered())
	i := 0
	out := *batch
	var prevRow, prevCol int64
	for ; n > 0; n-- {
		var dr, dc, dv uint64
		if r := win[i:]; len(r) >= 4 && r[0]|r[1+int(r[1]>>7)]|r[2+int(r[1]>>7)] < 0x80 {
			c := int(r[1] >> 7) // 1 when the column delta takes two bytes
			dr = uint64(r[0])
			dc = uint64(r[1]&0x7f) | uint64(r[1+c])<<(7*c)
			dv = uint64(r[2+c])
			i += 3 + c
		} else {
			var err error
			if dr, dc, dv, win, i, err = deltaRecord(br, win, i); err != nil {
				return err
			}
		}
		prevRow += unzigzag(dr)
		prevCol += unzigzag(dc)
		if len(out) == cap(out) {
			*batch = out
			if err := flush(); err != nil {
				return err
			}
			out = *batch
		}
		out = append(out, Edge{Row: prevRow, Col: prevCol, Val: unzigzag(dv)})
	}
	*batch = out
	_, err := br.Discard(i)
	return err
}

// deltaRecord decodes one record's three varints at win[i:] with
// binary.Uvarint, where win is br's buffered window and nothing before i
// has been consumed from br yet. It returns the window and position to
// continue from. All three varints are read before any error is
// classified, as a byte-at-a-time reader would: if the input ends among
// them the frame is truncated, otherwise an overflowing varint is
// corruption.
func deltaRecord(br *bufio.Reader, win []byte, i int) (dr, dc, dv uint64, _ []byte, _ int, _ error) {
	var v [3]uint64
	var errs [3]error
	for k := range v {
		v[k], win, i, errs[k] = uvarint(br, win, i)
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
// by the window's end refills the window: the decoded prefix is discarded,
// which moves the partial varint to the front of br's buffer, and at least
// one more byte is read. The errors are binary.ReadUvarint's: io.EOF when
// the input ends before the varint, io.ErrUnexpectedEOF when it ends inside
// it, the reader's own error, or errVarintOverflow after ten bytes, which
// are skipped.
func uvarint(br *bufio.Reader, win []byte, i int) (uint64, []byte, int, error) {
	for {
		x, m := binary.Uvarint(win[i:])
		switch {
		case m > 0:
			return x, win, i + m, nil
		case m < 0 || len(win)-i >= binary.MaxVarintLen64:
			return 0, win, i + binary.MaxVarintLen64, errVarintOverflow
		}
		rest := len(win) - i
		if _, err := br.Discard(i); err != nil {
			return 0, win, i, err
		}
		_, err := br.Peek(rest + 1)
		win, _ = br.Peek(br.Buffered())
		if err != nil {
			if err == io.EOF && rest > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, win, 0, err
		}
		i = 0
	}
}
