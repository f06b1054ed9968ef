package graphio

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// Wire benchmarks: encode (and for the binary format, decode) throughput of
// the edge writers over io.Discard, in edges/sec, the per-format kernels
// behind kronbench's fig3 wire section. Blocks are band-ordered, the shape
// the generator streams.

func benchEdges() []Edge {
	return bandOrderedEdgesN(1 << 16)
}

// bandOrderedEdgesN is the non-testing.T twin of the test helper, shared by
// benchmarks.
func bandOrderedEdgesN(n int) []Edge {
	edges := make([]Edge, n)
	row, col := int64(1<<20), int64(1<<19)
	for i := range edges {
		if i%5 == 0 {
			row += int64(i % 3)
			col = int64(i % 97)
		} else {
			col += int64(1 + i%13)
		}
		edges[i] = Edge{Row: row, Col: col, Val: 1}
	}
	return edges
}

// edgeInputBytes is an edge's in-memory size, three int64 fields: the
// encode benchmarks report throughput in input bytes.
const edgeInputBytes = 24

func reportEdges(b *testing.B, n int) {
	b.Helper()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkWireTSV encodes one run over a band-ordered block per
// iteration, at an offset that moves like a generator's.
func BenchmarkWireTSV(b *testing.B) {
	edges := benchEdges()
	run := Run{Block: mustBlock(edges), Hi: len(edges)}
	w := NewTSVEdgeWriter(io.Discard)
	b.SetBytes(int64(len(edges)) * edgeInputBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.RowBase += 1 << 12
		if err := w.WriteRun(run); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, len(edges))
}

// BenchmarkWireBinaryReplayRead decodes a replayed stream: one block frame
// of 2048 band-ordered edges, then one run frame per block offset, as a
// single-worker generation pass writes it.
func BenchmarkWireBinaryReplayRead(b *testing.B) {
	const runs = 256
	data := replaySeed(bandOrderedEdgesN(2048), runs)
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(ctx, bytes.NewReader(data), func([]Edge) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, 2048*runs)
}
