package kron_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/kron"
)

// TestPublicBinaryWire drives the exported wire surface end to end: a design
// streamed through a Writer sink into the binary encoder (the sink's Close
// finishing the stream), read back with ReadBinary, and reconciled against a
// Checksum fold from a second pass.
func TestPublicBinaryWire(t *testing.T) {
	d, err := kron.FromPoints([]int{3, 4}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := kron.NewGenerator(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	nnz := d.NumEdges().Int64()

	var buf bytes.Buffer
	ew, err := kron.NewBinaryEdgeWriter(&buf, nnz, kron.BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	// Finisher wiring is part of the public contract: Writer's Close must
	// finish the stream, no explicit Finish call here.
	var _ kron.Finisher = ew
	cnt, sum := kron.NewCounter(1), kron.NewChecksum(1)
	if err := kron.StreamTo(context.Background(), g, 1, 0, kron.Tee(kron.Writer(ew), cnt, sum)); err != nil {
		t.Fatal(err)
	}

	var edges int
	info, err := kron.ReadBinary(context.Background(), &buf, func(batch []kron.Edge) error {
		edges += len(batch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(edges) != nnz || info.Edges != nnz || info.NNZ != nnz {
		t.Fatalf("decoded %d edges (trailer %d, header %d), design says %d", edges, info.Edges, info.NNZ, nnz)
	}
	if info.Checksum != sum.Sum() {
		t.Fatalf("trailer checksum %#x, stream fold %#x", uint64(info.Checksum), uint64(sum.Sum()))
	}
	if cnt.Total() != nnz {
		t.Fatalf("counter saw %d edges, design says %d", cnt.Total(), nnz)
	}

	// The exported error classes classify failures.
	if _, err := kron.ReadBinary(context.Background(), bytes.NewReader([]byte("KRNB\x02\x00")), func([]kron.Edge) error { return nil }); !errors.Is(err, kron.ErrBinaryTruncated) {
		t.Fatalf("headerless stream: %v, want ErrBinaryTruncated", err)
	}
	if _, err := kron.ReadBinary(context.Background(), bytes.NewReader([]byte("nope")), func([]kron.Edge) error { return nil }); !errors.Is(err, kron.ErrBinaryCorrupt) {
		t.Fatalf("bad magic: %v, want ErrBinaryCorrupt", err)
	}

	// Delta is the only encoding: 1, the value of the retired fixed-width
	// one, is refused.
	if _, err := kron.NewBinaryEdgeWriter(io.Discard, nnz, 1); err == nil {
		t.Fatal("NewBinaryEdgeWriter accepted encoding 1")
	}
}
