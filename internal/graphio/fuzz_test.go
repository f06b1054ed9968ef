package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// FuzzReadTSV checks the TSV parser never panics and that anything it
// accepts survives a write/read round trip.
func FuzzReadTSV(f *testing.F) {
	f.Add("0\t1\t3\n1\t0\t4\n")
	f.Add("# comment\n\n2 2 -5\n")
	f.Add("x\ty\tz\n")
	f.Add("0\t0\t9223372036854775807\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadTSV(strings.NewReader(input), 8, 8)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, m); err != nil {
			t.Fatalf("write of accepted matrix failed: %v", err)
		}
		back, err := ReadTSV(&buf, 8, 8)
		if err != nil {
			t.Fatalf("round trip of accepted matrix failed: %v", err)
		}
		if !sparse.Equal(m, back, sr) {
			t.Fatal("round trip changed matrix")
		}
	})
}

// clampIndex folds an arbitrary fuzzed int64 into a valid [0, dim) index.
func clampIndex(x, dim int64) int64 {
	x %= dim
	if x < 0 {
		x += dim
	}
	return x
}

// FuzzTSVEdgeWriterRoundTrip is the writer-side half of the round-trip
// property: anything the streaming TSV edge writer emits — one-edge runs at
// fuzzed offsets, and comments fuzzed for injection — the TSV reader parses
// back to exactly the written triples, in order.
func FuzzTSVEdgeWriterRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(1), int64(7), int64(7), "end state=done")
	f.Add(int64(-9), int64(64), int64(3), int64(2), "a\nb\t# 1 2 3")
	f.Fuzz(func(t *testing.T, r1, c1, r2, c2 int64, comment string) {
		const dim = 16
		if len(comment) > 256 {
			comment = comment[:256]
		}
		edges := []Edge{
			{Row: clampIndex(r1, dim), Col: clampIndex(c1, dim), Val: 1},
			{Row: clampIndex(r2, dim), Col: clampIndex(c2, dim), Val: 1},
		}
		var buf bytes.Buffer
		ew := NewTSVEdgeWriter(&buf)
		if err := ew.Comment(comment); err != nil {
			t.Fatal(err)
		}
		if err := writeEdgeRuns(ew, edges); err != nil {
			t.Fatal(err)
		}
		if err := ew.Comment(comment); err != nil {
			t.Fatal(err)
		}
		if err := ew.Flush(); err != nil {
			t.Fatal(err)
		}
		m, err := ReadTSV(&buf, dim, dim)
		if err != nil {
			t.Fatalf("reader rejected writer output: %v", err)
		}
		if m.NNZ() != len(edges) {
			t.Fatalf("round trip produced %d triples, wrote %d (comment %q injected?)", m.NNZ(), len(edges), comment)
		}
		for i, tr := range m.Tr {
			if int64(tr.Row) != edges[i].Row || int64(tr.Col) != edges[i].Col || tr.Val != edges[i].Val {
				t.Fatalf("triple %d: got (%d,%d,%d), wrote (%d,%d,%d)",
					i, tr.Row, tr.Col, tr.Val, edges[i].Row, edges[i].Col, edges[i].Val)
			}
		}
	})
}

// FuzzMatrixMarketEdgeWriterRoundTrip: same property for the MatrixMarket
// streaming writer, whose header (with fuzzed comments) must stay parseable
// and whose 1-based entries must land back on the written 0-based triples.
func FuzzMatrixMarketEdgeWriterRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(1), int64(7), int64(7), "kronserve job j000001")
	f.Add(int64(15), int64(15), int64(0), int64(0), "3 3 9\n1 1 1")
	f.Fuzz(func(t *testing.T, r1, c1, r2, c2 int64, comment string) {
		const dim = 16
		if len(comment) > 256 {
			comment = comment[:256]
		}
		edges := []Edge{
			{Row: clampIndex(r1, dim), Col: clampIndex(c1, dim), Val: 1},
			{Row: clampIndex(r2, dim), Col: clampIndex(c2, dim), Val: 1},
		}
		var buf bytes.Buffer
		ew, err := NewMatrixMarketEdgeWriter(&buf, dim, dim, int64(len(edges)), comment)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeEdgeRuns(ew, edges); err != nil {
			t.Fatal(err)
		}
		if err := ew.Flush(); err != nil {
			t.Fatal(err)
		}
		m, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("reader rejected writer output: %v", err)
		}
		if m.NumRows != dim || m.NumCols != dim {
			t.Fatalf("round trip dims %dx%d, wrote %dx%d", m.NumRows, m.NumCols, dim, dim)
		}
		if m.NNZ() != len(edges) {
			t.Fatalf("round trip produced %d triples, wrote %d (comment %q injected?)", m.NNZ(), len(edges), comment)
		}
		for i, tr := range m.Tr {
			if int64(tr.Row) != edges[i].Row || int64(tr.Col) != edges[i].Col || tr.Val != edges[i].Val {
				t.Fatalf("triple %d: got (%d,%d,%d), wrote (%d,%d,%d)",
					i, tr.Row, tr.Col, tr.Val, edges[i].Row, edges[i].Col, edges[i].Val)
			}
		}
	})
}

// errTooMany caps how much an adversarial fuzz input may make the round-trip
// body accumulate; aborting through emit is itself a supported path.
var errTooMany = errors.New("fuzz: edge cap reached")

// binarySeed encodes edges (values 1, any coordinates) as one-edge runs
// over unitBlock: one block frame, then a run frame per edge whose offset
// carries the edge's coordinates.
func binarySeed(nnz int64, edges []Edge) []byte {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, nnz)
	if err != nil {
		panic(err)
	}
	if err := writeEdgeRuns(w, edges); err != nil {
		panic(err)
	}
	if err := w.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// blockReplaySeed encodes a stream through the block replay — one block
// frame, then one run frame per offset — so the fuzz corpus carries the
// replay path's exact framing.
func blockReplaySeed() []byte {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 6)
	if err != nil {
		panic(err)
	}
	b := mustBlock([]Edge{{Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 4, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	for _, base := range [][2]int64{{0, 0}, {3, 9}} {
		if err := w.WriteRun(Run{Block: b, Hi: b.Len(), RowBase: base[0], ColBase: base[1]}); err != nil {
			panic(err)
		}
	}
	if err := w.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// replaySeed encodes one block replayed at runs offsets: one block frame,
// then one run frame per offset, each as long as the block.
func replaySeed(block []Edge, runs int) []byte {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, int64(len(block)*runs))
	if err != nil {
		panic(err)
	}
	b := mustBlock(block)
	for r := 0; r < runs; r++ {
		if err := w.WriteRun(Run{Block: b, Hi: b.Len(), RowBase: int64(r) << 20, ColBase: int64(runs-r) << 30}); err != nil {
			panic(err)
		}
	}
	if err := w.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// uvs appends the varints of xs to dst: the hand-built streams' frame
// fields.
func uvs(dst []byte, xs ...uint64) []byte {
	for _, x := range xs {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// handStream assembles a delta stream by hand: the header (with nnz when
// nnz >= 0), the frames, and a trailer declaring edges and sum under a
// correct CRC, so only what the frames get wrong can fail it.
func handStream(nnz int64, edges, sum int64, frames ...[]byte) []byte {
	data := []byte("KRNB\x02\x00")
	if nnz >= 0 {
		data[5] = binFlagHasNNZ
		data = uvs(data, uint64(nnz))
	}
	for _, f := range frames {
		data = append(data, f...)
	}
	data = uvs(data, 0, uint64(edges))
	data = binary.LittleEndian.AppendUint64(data, uint64(sum))
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
}

// blockFrame is block id's frame over block-local edges (r, c) with the
// given value: delta records, prev reset.
func blockFrame(id uint64, val int64, edges ...[2]int64) []byte {
	f := uvs(nil, uint64(len(edges))<<2|frameBlock, id)
	var prev Edge
	for _, rc := range edges {
		e := Edge{Row: rc[0], Col: rc[1], Val: val}
		f = appendDelta(f, prev, e)
		prev = e
	}
	return f
}

// runFrame is a run frame over edges [lo, lo+n) of block id.
func runFrame(id, lo, n uint64, rowBase, colBase int64) []byte {
	return uvs(nil, n<<2|frameRun, id, lo, zigzag(rowBase), zigzag(colBase))
}

// overflowSeed is a delta stream whose block frame's second record starts
// with an 11-byte varint: ten continuation bytes, more than any uint64
// needs.
func overflowSeed() []byte {
	data := []byte("KRNB\x02\x00")
	data = append(data, 2<<2|frameBlock, 0) // block 0, two records
	data = append(data, 2, 2, 2)            // (1, 1, 1)
	data = append(data, bytes.Repeat([]byte{0xff}, 10)...)
	data = append(data, 0x01, 2, 2) // overflowing row delta, then col, val
	data = append(data, 0, 0)       // trailer tag, edges
	return append(data, make([]byte, 8+4)...)
}

// blockFloodSeed is the header and 20,000 one-record block frames, with no
// trailer: 123,494 bytes that make a decoder which allocates a block's full
// chunk whatever the frame declares hold 20,000 chunks at once.
func blockFloodSeed() []byte {
	data := []byte("KRNB\x02\x00")
	for id := range uint64(20_000) {
		data = uvs(data, 1<<2|frameBlock, id)
		data = append(data, 0, 2, 2) // (0, 1, 1)
	}
	return data
}

// FuzzReadBinary checks the binary edge reader never panics on arbitrary
// bytes and that anything it accepts survives a re-encode/re-read round trip
// with identical edges, count, and checksum.
func FuzzReadBinary(f *testing.F) {
	f.Add(binarySeed(2, []Edge{{Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 3, Val: 1}}))
	f.Add(blockReplaySeed())
	f.Add(binarySeed(2, []Edge{{Row: 0, Col: 1, Val: 1}, {Row: 5, Col: -2, Val: 1}}))
	f.Add(binarySeed(0, nil))
	f.Add(binarySeed(-1, []Edge{{Row: 1 << 40, Col: -(1 << 30), Val: 1}}))
	f.Add([]byte("KRNB"))
	f.Add([]byte("0\t1\t1\n"))
	f.Add(replaySeed(bandOrderedEdgesN(30_000), 1)) // a block frame longer than the 64 KiB read buffer
	f.Add(overflowSeed())
	f.Add(handStream(2, 2, 0, blockFrame(0, 1, [2]int64{0, 1}, [2]int64{1, 0}), runFrame(1, 0, 2, 5, 5))) // run names an undefined block
	f.Add(blockFloodSeed())
	f.Add(handStream(1, 1, 32, uvs(nil, 1<<2|frameRetiredEdges, 2, 2, 2))) // a retired edge frame of one edge (1, 1, 1)
	f.Fuzz(func(t *testing.T, input []byte) {
		var edges []Edge
		info, err := ReadBinary(nil, bytes.NewReader(input), func(batch []Edge) error {
			if len(edges) > 1<<20 {
				return errTooMany
			}
			edges = append(edges, batch...)
			return nil
		})
		if err != nil {
			return
		}
		if info.Edges != int64(len(edges)) {
			t.Fatalf("info declares %d edges, emit saw %d", info.Edges, len(edges))
		}
		var buf bytes.Buffer
		w, werr := NewBinaryEdgeWriter(&buf, info.NNZ)
		if werr != nil {
			t.Fatal(werr)
		}
		if werr := writeEdgeRuns(w, edges); werr != nil {
			t.Fatal(werr)
		}
		if werr := w.Finish(); werr != nil {
			t.Fatal(werr)
		}
		if w.Checksum() != info.Checksum {
			t.Fatalf("re-encode checksum %#x, accepted stream declared %#x", uint64(w.Checksum()), uint64(info.Checksum))
		}
		var back []Edge
		info2, rerr := ReadBinary(nil, &buf, func(batch []Edge) error {
			back = append(back, batch...)
			return nil
		})
		if rerr != nil {
			t.Fatalf("re-read of re-encoded accepted stream failed: %v", rerr)
		}
		if info2.Edges != info.Edges || info2.Checksum != info.Checksum {
			t.Fatalf("re-encode trailer (%d, %#x) != accepted (%d, %#x)",
				info2.Edges, uint64(info2.Checksum), info.Edges, uint64(info.Checksum))
		}
		if len(back) != len(edges) {
			t.Fatalf("re-read produced %d edges, accepted stream had %d", len(back), len(edges))
		}
		for i := range back {
			if back[i] != edges[i] {
				t.Fatalf("edge %d changed across round trip: %+v vs %+v", i, back[i], edges[i])
			}
		}
	})
}

// FuzzReadMatrixMarket checks the MatrixMarket parser never panics and that
// accepted inputs keep their dimensions consistent.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, tr := range m.Tr {
			if tr.Row < 0 || tr.Row >= m.NumRows || tr.Col < 0 || tr.Col >= m.NumCols {
				t.Fatalf("accepted out-of-bounds triple %+v in %dx%d", tr, m.NumRows, m.NumCols)
			}
		}
	})
}
