package graphio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// bandOrderedEdges builds a deterministic band-ordered edge list (rows
// non-decreasing, columns ascending within a row) — the shape the generator
// streams and the delta encoding is tuned for.
func bandOrderedEdges(n int) []Edge {
	edges := make([]Edge, n)
	row, col := int64(0), int64(0)
	rng := rand.New(rand.NewSource(7))
	for i := range edges {
		if rng.Intn(4) == 0 {
			row += int64(rng.Intn(3))
			col = int64(rng.Intn(8))
		} else {
			col += int64(1 + rng.Intn(16))
		}
		edges[i] = Edge{Row: row, Col: col, Val: 1}
	}
	return edges
}

// collectBinary decodes a stream, copying every emitted batch (the emit
// batch is reused, per the pipeline ownership contract).
func collectBinary(t *testing.T, data []byte) ([]Edge, *BinaryInfo, error) {
	t.Helper()
	return collectBinaryFrom(t, bytes.NewReader(data))
}

// collectBinaryFrom is collectBinary over any reader.
func collectBinaryFrom(t *testing.T, r io.Reader) ([]Edge, *BinaryInfo, error) {
	t.Helper()
	var got []Edge
	info, err := ReadBinary(context.Background(), r, func(batch []Edge) error {
		got = append(got, batch...)
		return nil
	})
	return got, info, err
}

// foldChecksum is the definitional stream fold, s ^= row*31 + col per edge:
// the oracle the writer's and reader's closed-form folds are held to.
func foldChecksum(sum int64, batch []Edge) int64 {
	for _, e := range batch {
		sum ^= e.Row*31 + e.Col
	}
	return sum
}

// mustBlock is NewBlock for edges known to form a block.
func mustBlock(edges []Edge) *Block {
	b, err := NewBlock(edges)
	if err != nil {
		panic(err)
	}
	return b
}

// unitBlock is a one-edge block at (0, 0): a run over it at offset
// (row, col) writes the single edge (row, col, 1), so a list of edges with
// any coordinates becomes a list of runs.
var unitBlock = mustBlock([]Edge{{Row: 0, Col: 0, Val: 1}})

// writeEdgeRuns writes each edge as a one-edge run over unitBlock.
func writeEdgeRuns(w EdgeWriter, edges []Edge) error {
	for _, e := range edges {
		if err := w.WriteRun(Run{Block: unitBlock, Hi: 1, RowBase: e.Row, ColBase: e.Col}); err != nil {
			return err
		}
	}
	return nil
}

// readShapes are the read patterns the decoder must be indifferent to: one
// large read, and one byte per read, which cuts every varint at the
// decoder's buffered window.
var readShapes = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
}

// TestBinaryRoundTrip reads back exactly what the writer wrote. A stream
// as the retired fixed-width encoding wrote it no longer round-trips: it is
// refused whole, naming the encoding, before any edge reaches emit.
func TestBinaryRoundTrip(t *testing.T) {
	edges := bandOrderedEdges(10_000)
	wantSum := foldChecksum(0, edges)
	t.Run("delta", func(t *testing.T) {
		var buf bytes.Buffer
		w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)))
		if err != nil {
			t.Fatal(err)
		}
		// Mix the write shapes over one block: a long run, a comment
		// (discarded), a mid-stream flush, one-edge runs, then the rest.
		b := mustBlock(edges)
		if err := w.WriteRun(Run{Block: b, Hi: 8000}); err != nil {
			t.Fatal(err)
		}
		if err := w.Comment("end state=ignored"); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 8000; i < 8100; i++ {
			if err := w.WriteRun(Run{Block: b, Lo: i, Hi: i + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteRun(Run{Block: b, Lo: 8100, Hi: len(edges)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != int64(len(edges)) || w.Checksum() != wantSum {
			t.Fatalf("writer folded count=%d sum=%#x, want %d/%#x", w.Count(), w.Checksum(), len(edges), uint64(wantSum))
		}

		got, info, err := collectBinary(t, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if info.NNZ != int64(len(edges)) {
			t.Fatalf("info %+v, want nnz=%d", info, len(edges))
		}
		if info.Edges != int64(len(edges)) || info.Checksum != wantSum {
			t.Fatalf("trailer %d edges sum %#x, want %d/%#x", info.Edges, uint64(info.Checksum), len(edges), uint64(wantSum))
		}
		if len(got) != len(edges) {
			t.Fatalf("decoded %d edges, wrote %d", len(got), len(edges))
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("edge %d: got %+v, wrote %+v", i, got[i], edges[i])
			}
		}
	})
	t.Run("fixed", func(t *testing.T) {
		// Flags bit 0 (fixed-width) and bit 1 (nnz present), one edge frame
		// of three little-endian int64s per edge, then a trailer with the
		// right count, checksum and CRC.
		data := uvs([]byte{'K', 'R', 'N', 'B', 2, binFlagRetiredFixed | binFlagHasNNZ}, uint64(len(edges)), uint64(len(edges))<<2|frameRetiredEdges)
		for _, e := range edges {
			for _, x := range []int64{e.Row, e.Col, e.Val} {
				data = binary.LittleEndian.AppendUint64(data, uint64(x))
			}
		}
		data = uvs(data, 0, uint64(len(edges)))
		data = binary.LittleEndian.AppendUint64(data, uint64(wantSum))
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
		got, _, err := collectBinary(t, data)
		if !errors.Is(err, ErrBinaryCorrupt) || !strings.Contains(err.Error(), "fixed-width") || len(got) != 0 {
			t.Fatalf("fixed-width stream: %d edges, %v; want none and ErrBinaryCorrupt naming the encoding", len(got), err)
		}
	})
}

// TestBinaryDeltaIsCompact pins the point of the delta encoding: a
// band-ordered block sent once spends a few bytes per edge, far under the
// 24 of an edge's three int64 fields.
func TestBinaryDeltaIsCompact(t *testing.T) {
	edges := bandOrderedEdges(10_000)
	buf := replaySeed(edges, 1)
	if perEdge := float64(len(buf)) / float64(len(edges)); perEdge > 6 {
		t.Fatalf("delta encoding spent %.1f bytes/edge on a band-ordered stream, want <= 6", perEdge)
	}
}

// TestBinaryNegativeAndExtremeValues: the encoding is not limited to the
// generator's non-negative offsets — runs at arbitrary int64 offsets
// round-trip (zig-zag handles signs, and a block edge plus its offset wraps
// exactly, as int64 addition does).
func TestBinaryNegativeAndExtremeValues(t *testing.T) {
	b := mustBlock([]Edge{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 5, Val: 1}, {Row: 2, Col: 1, Val: 1}})
	var runs []Run
	for _, off := range [][2]int64{
		{0, 0},
		{-1, 1 << 62},
		{1<<63 - 1, -(1 << 62)},
		{-1 << 63, 17},
		{3, 1<<63 - 3},
	} {
		runs = append(runs, Run{Block: b, Hi: b.Len(), RowBase: off[0], ColBase: off[1]})
	}
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	var want []Edge
	for _, r := range runs {
		if err := w.WriteRun(r); err != nil {
			t.Fatal(err)
		}
		want = r.AppendEdges(want)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, info, err := collectBinary(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.NNZ != -1 {
		t.Fatalf("nnz %d, want -1 (unknown)", info.NNZ)
	}
	if !slices.Equal(got, want) || info.Checksum != foldChecksum(0, want) {
		t.Fatalf("decoded %+v (sum %#x), wrote %+v (sum %#x)", got, uint64(info.Checksum), want, uint64(foldChecksum(0, want)))
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, info, err := collectBinary(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || info.Edges != 0 || info.NNZ != 0 {
		t.Fatalf("empty stream decoded to %d edges, info %+v", len(got), info)
	}
}

func TestBinaryFinishIdempotentAndTerminal(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEdgeRuns(w, []Edge{{Row: 1, Col: 2, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Fatal("second Finish wrote a second trailer")
	}
	if err := writeEdgeRuns(w, []Edge{{Row: 3, Col: 4, Val: 1}}); err == nil {
		t.Fatal("WriteRun after Finish accepted")
	}
	if _, _, err := collectBinary(t, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryTruncation: every proper prefix of a valid stream fails with a
// binary-format error — never a silent partial decode, never a panic. Once
// the header is whole, the error is ErrBinaryTruncated wherever the cut
// falls: inside a block or run frame, or inside the trailer.
func TestBinaryTruncation(t *testing.T) {
	edges := bandOrderedEdges(300)
	streams := map[string][]byte{
		"edge runs": binarySeed(int64(len(edges)), edges),
		"replayed":  replaySeed(edges[:100], 3),
	}
	for name, data := range streams {
		header := len(binary.AppendUvarint([]byte("KRNB\x02\x00"), uint64(len(edges))))
		for _, shape := range readShapes {
			for cut := 0; cut < len(data); cut++ {
				_, _, err := collectBinaryFrom(t, shape.wrap(data[:cut]))
				switch {
				case err == nil:
					t.Fatalf("%s %s: prefix of %d/%d bytes decoded without error", name, shape.name, cut, len(data))
				case cut >= header && !errors.Is(err, ErrBinaryTruncated):
					t.Fatalf("%s %s: prefix of %d/%d bytes: %v, want ErrBinaryTruncated", name, shape.name, cut, len(data), err)
				case !errors.Is(err, ErrBinaryTruncated) && !errors.Is(err, ErrBinaryCorrupt):
					t.Fatalf("%s %s: prefix of %d bytes: unexpected error class %v", name, shape.name, cut, err)
				}
			}
		}
	}
}

// TestBinaryBitFlips: flipping any single bit of a valid stream makes
// ReadBinary fail, under every read shape, for a stream of one-edge runs at
// scattered offsets and a replayed stream of one block's runs.
// The XOR fold alone cannot promise this — a flipped value byte is outside
// it, and under delta encoding or block replay one flip moves several
// edges whose XOR differences can cancel — so this pins the trailer's
// CRC-32C, which catches every single-bit error.
func TestBinaryBitFlips(t *testing.T) {
	edges := bandOrderedEdges(64)
	streams := map[string][]byte{
		"edge runs": binarySeed(int64(len(edges)), edges),
		"replayed":  replaySeed(edges[:16], 4),
	}
	for name, data := range streams {
		for _, shape := range readShapes {
			for pos := 0; pos < len(data); pos++ {
				for bit := 0; bit < 8; bit++ {
					mut := bytes.Clone(data)
					mut[pos] ^= 1 << bit
					if got, _, err := collectBinaryFrom(t, shape.wrap(mut)); err == nil {
						t.Fatalf("%s %s: flip @%d.%d of %d bytes decoded %d edges without error",
							name, shape.name, pos, bit, len(data), len(got))
					}
				}
			}
		}
	}
}

// TestBinaryReadShapes: the decoder reads from its buffered window, so
// where the reads end must not matter. Streams of one-edge runs at
// scattered offsets and block-replayed streams, including a run of frames
// and a block frame longer than the 64 KiB read buffer, decode to
// the same edges and BinaryInfo through one-byte reads, half reads, and a
// reader split at every offset (every offset of the small streams, a
// sample of the large ones) as through one bytes.Reader.
func TestBinaryReadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	streams := []struct {
		name  string
		data  []byte
		every bool // split at every offset, not a sample
	}{
		{"edge runs", binarySeed(500, bandOrderedEdges(500)), true},
		{"replayed", replaySeed(randomBlock(rng, 200), 3), true},
		{"edge runs large", binarySeed(60_000, bandOrderedEdges(60_000)), false},
		{"replayed long block frame", replaySeed(bandOrderedEdges(40_000), 3), false},
	}
	// The long block frame must outgrow the reader's 64 KiB buffer.
	if recs := mustBlock(bandOrderedEdges(40_000)).records(); len(recs) <= 1<<16 {
		t.Fatalf("block frame payload of %d bytes fits the 64 KiB read buffer", len(recs))
	}
	for _, st := range streams {
		want, wantInfo, err := collectBinary(t, st.data)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		readers := map[string]io.Reader{
			"one-byte": iotest.OneByteReader(bytes.NewReader(st.data)),
			"half":     iotest.HalfReader(bytes.NewReader(st.data)),
		}
		for cut := 1; cut < len(st.data); cut++ {
			if !st.every && rng.Intn(len(st.data)) >= 40 {
				continue
			}
			readers[fmt.Sprintf("split@%d", cut)] = io.MultiReader(
				bytes.NewReader(st.data[:cut]), bytes.NewReader(st.data[cut:]))
		}
		for name, r := range readers {
			got, info, err := collectBinaryFrom(t, r)
			if err != nil {
				t.Fatalf("%s %s: %v", st.name, name, err)
			}
			if *info != *wantInfo || !slices.Equal(got, want) {
				t.Fatalf("%s %s: decoded %d edges %+v, one bytes.Reader gives %d edges %+v",
					st.name, name, len(got), *info, len(want), *wantInfo)
			}
		}
	}
}

// TestBinaryOverflowingVarint pins the error classes of a varint that
// overflows mid-frame, under every read shape: corruption, unless the input
// then ends inside the same record, which makes the frame truncated — the
// classes a byte-at-a-time reader gives, since it reads each record's
// three varints before judging them.
func TestBinaryOverflowingVarint(t *testing.T) {
	corrupt := overflowSeed()
	// Cut after header, frame tag and block id (8 bytes), the first record
	// (3) and the 11 varint bytes: the ten overflowing ones, then one read
	// as the column delta, so the record's value is missing.
	cut := corrupt[:8+3+11]
	for _, shape := range readShapes {
		if _, _, err := collectBinaryFrom(t, shape.wrap(corrupt)); !errors.Is(err, ErrBinaryCorrupt) {
			t.Fatalf("%s: overflowing varint: %v, want ErrBinaryCorrupt", shape.name, err)
		}
		if _, _, err := collectBinaryFrom(t, shape.wrap(cut)); !errors.Is(err, ErrBinaryTruncated) {
			t.Fatalf("%s: overflowing varint, record cut short: %v, want ErrBinaryTruncated", shape.name, err)
		}
	}
}

func TestBinaryHeaderNNZMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(Run{Block: mustBlock(bandOrderedEdges(3)), Hi: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	// The trailer is internally consistent (3 edges, matching checksum), but
	// the header promised exactly 5: an incomplete stream must not read as
	// complete. This is what a cancelled job's binary stream looks like.
	if _, _, err := collectBinary(t, buf.Bytes()); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("header/trailer count mismatch: %v, want ErrBinaryCorrupt", err)
	}
}

func TestBinaryTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEdgeRuns(w, []Edge{{Row: 1, Col: 2, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0x00)
	if _, _, err := collectBinary(t, buf.Bytes()); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("trailing garbage: %v, want ErrBinaryCorrupt", err)
	}
}

func TestBinaryBadHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":        {},
		"short":        []byte("KRN"),
		"bad magic":    []byte("KRNX\x02\x00"),
		"bad version":  []byte("KRNB\x07\x00"),
		"bad flags":    []byte("KRNB\x02\xf0"),
		"tsv not krnb": []byte("0\t1\t1\n"),
	} {
		if _, _, err := collectBinary(t, data); !errors.Is(err, ErrBinaryCorrupt) {
			t.Fatalf("%s: %v, want ErrBinaryCorrupt", name, err)
		}
	}
	// Version 1 streams have no read path; the error says which version
	// arrived.
	v1 := []byte("KRNB\x01\x00\x01\x02\x02\x02\x00\x01\x20\x00\x00\x00\x00\x00\x00\x00") // one edge (1, 1, 1)
	if _, _, err := collectBinary(t, v1); !errors.Is(err, ErrBinaryCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 stream: %v, want ErrBinaryCorrupt naming version 1", err)
	}
}

// TestBinaryBadFrames: frames that break the v2 rules are corruption, each
// caught by its own check (the hand-built trailers carry a correct CRC).
func TestBinaryBadFrames(t *testing.T) {
	block := blockFrame(0, 1, [2]int64{0, 1}, [2]int64{0, 3}, [2]int64{1, 0})
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"undefined block", "names block 1", handStream(-1, 3, 0, block, runFrame(1, 0, 3, 0, 0))},
		{"run before any block", "names block 0", handStream(-1, 1, 0, runFrame(0, 0, 1, 0, 0))},
		{"run past block end", "passes block 0", handStream(-1, 2, 0, block, runFrame(0, 2, 2, 0, 0))},
		{"run start past block end", "passes block 0", handStream(-1, 1, 0, block, runFrame(0, 4, 1, 0, 0))},
		{"block value 2", "0/1 pattern", handStream(-1, 0, 0, blockFrame(0, 2, [2]int64{0, 1}))},
		{"negative block coordinate", "0/1 pattern", handStream(-1, 0, 0, blockFrame(0, 1, [2]int64{-1, 1}))},
		{"block coordinate 2^31", "0/1 pattern", handStream(-1, 0, 0, blockFrame(0, 1, [2]int64{0, 1 << 31}))},
		{"block ids out of order", "block frame id 1", handStream(-1, 0, 0, blockFrame(1, 1, [2]int64{0, 1}))},
		{"kind 3", "bad frame tag", handStream(-1, 0, 0, uvs(nil, 1<<2|3))},
		{"kind 0, the retired edge frame", "edge frame", handStream(-1, 1, foldChecksum(0, []Edge{{0, 1, 1}}), uvs(nil, 1<<2|frameRetiredEdges, 0, 2, 2))},
		{"empty block frame", "bad frame tag", handStream(-1, 0, 0, uvs(nil, frameBlock, 0))},
		{"empty run frame", "bad frame tag", handStream(-1, 0, 0, block, runFrame(0, 0, 0, 0, 0))},
		{"crc mismatch", "CRC", func() []byte {
			data := replaySeed(bandOrderedEdges(20), 2)
			data[len(data)-1] ^= 0x80
			return data
		}()},
		{"flag bit 0 set", "fixed-width", func() []byte {
			data := handStream(-1, 0, 0, block)
			data[5] |= binFlagRetiredFixed
			return data
		}()},
	} {
		if _, _, err := collectBinary(t, c.data); !errors.Is(err, ErrBinaryCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want ErrBinaryCorrupt mentioning %q", c.name, err, c.want)
		}
	}
	// The well-formed versions of these frames decode.
	got, info, err := collectBinary(t, handStream(-1, 3, foldChecksum(0, []Edge{{0, 9, 1}, {0, 11, 1}, {1, 8, 1}}), block, runFrame(0, 0, 3, 0, 8)))
	if err != nil || len(got) != 3 || info.Edges != 3 || got[2] != (Edge{Row: 1, Col: 8, Val: 1}) {
		t.Fatalf("well-formed hand-built stream: %v, %v, %+v", err, got, info)
	}
}

// TestBinaryOverLongStreamStopsEarly: with nnz in the header, a frame that
// would carry the stream past it is corruption before any of its edges is
// emitted. A run frame of a few bytes expands to a whole block, so waiting
// for the trailer would let a short corrupt stream emit far more edges than
// the header promised.
func TestBinaryOverLongStreamStopsEarly(t *testing.T) {
	frames := [][]byte{blockFrame(0, 1, [2]int64{0, 1}, [2]int64{0, 2}, [2]int64{1, 0}, [2]int64{1, 3})}
	for r := range 1000 {
		frames = append(frames, runFrame(0, 0, 4, int64(r)*2, 0))
	}
	emitted := 0
	_, err := ReadBinary(context.Background(), bytes.NewReader(handStream(10, 4000, 0, frames...)), func(batch []Edge) error {
		emitted += len(batch)
		return nil
	})
	if !errors.Is(err, ErrBinaryCorrupt) || !strings.Contains(err.Error(), "passes the header") {
		t.Fatalf("over-long stream: %v, want ErrBinaryCorrupt for passing the header's nnz", err)
	}
	if emitted > 10 {
		t.Fatalf("over-long stream emitted %d edges before failing, header declares 10", emitted)
	}
}

func TestBinaryReadCancellation(t *testing.T) {
	buf := bytes.NewBuffer(replaySeed(bandOrderedEdges(1000), 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadBinary(ctx, bytes.NewReader(buf.Bytes()), func([]Edge) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v, want context.Canceled", err)
	}
	// nil ctx is the house "never cancelled" convention.
	if _, err := ReadBinary(nil, bytes.NewReader(buf.Bytes()), func([]Edge) error { return nil }); err != nil {
		t.Fatalf("nil-ctx read: %v", err)
	}
}

func TestBinaryEmitErrorAborts(t *testing.T) {
	buf := bytes.NewBuffer(replaySeed(bandOrderedEdges(100), 1))
	boom := errors.New("boom")
	if _, err := ReadBinary(context.Background(), bytes.NewReader(buf.Bytes()), func([]Edge) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// TestEdgeWriterZeroAllocsPerBatch extends the pipeline/service alloc guards
// down into the encoders: one steady-state WriteRun on each wire format —
// TSV and MatrixMarket (LUT fast path) and KRNB (a run frame over a block
// sent once) — must allocate nothing.
func TestEdgeWriterZeroAllocsPerBatch(t *testing.T) {
	run := Run{Block: mustBlock(bandOrderedEdges(2048)), Hi: 2048}
	mm, err := NewMatrixMarketEdgeWriter(io.Discard, 1<<40, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := NewBinaryEdgeWriter(io.Discard, -1)
	if err != nil {
		t.Fatal(err)
	}
	writers := map[string]EdgeWriter{"tsv": NewTSVEdgeWriter(io.Discard), "mm": mm, "bin-delta": bd}
	for name, w := range writers {
		t.Run(name, func(t *testing.T) {
			run := run
			// Warm-up grows the scratch buffer (and sends KRNB's block
			// frame) — the one amortized allocation.
			if err := w.WriteRun(run); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				run.RowBase += 2048
				if err := w.WriteRun(run); err != nil {
					t.Fatal(err)
				}
			})
			if raceEnabled {
				t.Logf("race build: observed %.1f allocs/run; assertion skipped (instrumentation allocates)", allocs)
			} else if allocs != 0 {
				t.Fatalf("%s WriteRun allocates %.1f times per run, want 0", name, allocs)
			}
		})
	}
}

// TestBinaryDecodeMemoryBounded: a decoder keeps every block a stream
// sends, so what it allocates must follow the bytes that carry those
// blocks, not the counts their frames declare. blockFloodSeed's 20,000
// one-record block frames once made ReadBinary allocate a 4,096-edge chunk
// for each: 657 MB for 123 KB of input before it failed as truncated.
func TestBinaryDecodeMemoryBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	data := blockFloodSeed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(context.Background(), bytes.NewReader(data), func([]Edge) error { return nil })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBinaryTruncated) {
		t.Fatalf("block flood without a trailer: %v, want ErrBinaryTruncated", err)
	}
	// A one-record block frame is 4-6 bytes; it costs its 8-byte edge and
	// an 8-byte end in the block table, whose growth reallocates, and the
	// reader's 64 KiB window and emit batch are fixed costs. About 8 bytes
	// per input byte in all.
	const maxPerByte = 16
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(data)); perByte > maxPerByte {
		t.Fatalf("decoding %d bytes allocated %d (%.0f per input byte), want at most %d per byte",
			len(data), after.TotalAlloc-before.TotalAlloc, perByte, maxPerByte)
	}
}
