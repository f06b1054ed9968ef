package gen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// TestWireGoldenDigests pins the bytes of every wire format: one fixed
// design streamed by one worker through pipeline.Writer, at the default
// run length and at a run length that cuts C's block mid-row, must hash
// to SHA-256 digests recorded from commit 38ea9a9, before the writers
// became run-shaped and KRNB lost its edge frame. An encoder change that
// moves a byte fails here, whatever the round-trip suites say.
func TestWireGoldenDigests(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, nnz := g.NumVertices(), g.NumEdges()
	formats := []struct {
		name string
		new  func(*bytes.Buffer) (graphio.EdgeWriter, error)
	}{
		{"tsv", func(b *bytes.Buffer) (graphio.EdgeWriter, error) { return graphio.NewTSVEdgeWriter(b), nil }},
		{"matrixmarket", func(b *bytes.Buffer) (graphio.EdgeWriter, error) {
			return graphio.NewMatrixMarketEdgeWriter(b, n, n, nnz, "golden")
		}},
		{"krnb", func(b *bytes.Buffer) (graphio.EdgeWriter, error) { return graphio.NewBinaryEdgeWriter(b, nnz) }},
	}
	// Text formats carry no run structure, so both run lengths write the
	// same bytes; KRNB writes one run frame per run.
	want := map[string]string{
		"tsv/batch=0":          "a40db936009f9e097c0fcb43d8592e3b90e28c9833ebaf173f61e0ebbe67fb55",
		"tsv/batch=7":          "a40db936009f9e097c0fcb43d8592e3b90e28c9833ebaf173f61e0ebbe67fb55",
		"matrixmarket/batch=0": "7bebcf28fd925e077faa4014d775d47e4d943a885961a2737a1d1dbf5dcce417",
		"matrixmarket/batch=7": "7bebcf28fd925e077faa4014d775d47e4d943a885961a2737a1d1dbf5dcce417",
		"krnb/batch=0":         "89185f9c50818221eafb6790ebc28100e463af100352ef4b7a71074c8f7507b4",
		"krnb/batch=7":         "f4b05bfd713437d09403a09931a80d40b6c15239d93a991563f91ec7db53fbd1",
	}
	for _, f := range formats {
		for _, batch := range []int{0, 7} {
			var buf bytes.Buffer
			ew, err := f.new(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.StreamTo(context.Background(), 1, batch, pipeline.Writer(ew)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			key := fmt.Sprintf("%s/batch=%d", f.name, batch)
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: %d bytes hash to %s, want %s", key, buf.Len(), got, want[key])
			}
		}
	}
}
