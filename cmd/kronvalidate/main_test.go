package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/kron"
)

// streamChunkFiles streams the design once per requested format into temp
// files and returns their paths.
func streamChunkFiles(t *testing.T) (tsvPath, binPath string) {
	t.Helper()
	d, err := kron.FromPoints([]int{3, 4, 5}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tsvPath = filepath.Join(dir, "edges.tsv")
	binPath = filepath.Join(dir, "edges.bin")

	tf, err := os.Create(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.StreamTo(context.Background(), 1, 0, pipeline.Writer(graphio.NewTSVEdgeWriter(tf))); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	bf, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := graphio.NewBinaryEdgeWriter(bf, g.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.StreamTo(context.Background(), 1, 0, pipeline.Writer(ew)); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
	return tsvPath, binPath
}

// TestValidateStreams: the -in mode accepts both chunk formats (binary
// auto-detected by magic) and reconciles their count and checksum against
// the design's count-only pass.
func TestValidateStreams(t *testing.T) {
	tsvPath, binPath := streamChunkFiles(t)
	args := []string{"-mhat", "3,4,5", "-loop", "hub", "-split", "2"}
	for _, path := range []string{tsvPath, binPath} {
		if err := run(context.Background(), append(args, "-in", path)); err != nil {
			t.Fatalf("-in %s: %v", path, err)
		}
	}
}

// rewriteTSVEdge copies the TSV stream at path with the first edge that
// edit accepts replaced by the line edit returns, and returns the copy.
func rewriteTSVEdge(t *testing.T, path string, edit func(row, col, val int64) (string, bool)) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		var row, col, val int64
		if _, err := fmt.Sscanf(line, "%d\t%d\t%d", &row, &col, &val); err != nil {
			continue
		}
		if repl, ok := edit(row, col, val); ok {
			lines[i] = repl
			out := filepath.Join(t.TempDir(), "edited.tsv")
			if err := os.WriteFile(out, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	t.Fatal("no edge to rewrite")
	return ""
}

// TestValidateStreamsDetectsMismatch: a stream from a different design must
// fail reconciliation, a truncated binary stream and one flagged with the
// retired fixed-width encoding must fail their own framing checks before
// any counting happens, and an edge that is not a 0/1 entry between two of
// the design's vertices must be rejected even when the count and checksum
// still agree.
func TestValidateStreamsDetectsMismatch(t *testing.T) {
	tsvPath, binPath := streamChunkFiles(t)
	if err := run(context.Background(), []string{"-mhat", "3,4", "-loop", "hub", "-in", binPath}); err == nil {
		t.Fatal("stream of a different design validated")
	}

	raw, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.bin")
	if err := os.WriteFile(cut, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-mhat", "3,4,5", "-loop", "hub", "-split", "2", "-in", cut}); err == nil {
		t.Fatal("truncated binary stream validated")
	}
	fixed := bytes.Clone(raw)
	fixed[5] |= 1 // the header flag bit that marked a fixed-width stream
	fixedPath := filepath.Join(t.TempDir(), "fixed.bin")
	if err := os.WriteFile(fixedPath, fixed, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-mhat", "3,4,5", "-loop", "hub", "-split", "2", "-in", fixedPath})
	if !errors.Is(err, graphio.ErrBinaryCorrupt) || !strings.Contains(err.Error(), "fixed-width") {
		t.Fatalf("fixed-width chunk: err = %v, want ErrBinaryCorrupt naming the fixed-width encoding", err)
	}

	// A hand-built KRNB stream, well formed but for its one block frame's
	// record carrying value 2: the edge (0, 1), sent once and run once.
	valTwo := []byte("KRNB\x02\x00")
	valTwo = append(valTwo, 1<<2|1, 0, 0, 2, 4)          // block frame 0: record (+0, +1) = 2
	valTwo = append(valTwo, 1<<2|2, 0, 0, 0, 0)          // run frame: block 0, edge 0, offset (0, 0)
	valTwo = append(valTwo, 0, 1)                        // trailer: one edge,
	valTwo = binary.LittleEndian.AppendUint64(valTwo, 1) // checksum 0·31 + 1,
	valTwo = binary.LittleEndian.AppendUint32(valTwo, crc32.Checksum(valTwo, crc32.MakeTable(crc32.Castagnoli)))
	binValTwo := filepath.Join(t.TempDir(), "val2.bin")
	if err := os.WriteFile(binValTwo, valTwo, 0o644); err != nil {
		t.Fatal(err)
	}

	bad := map[string]struct{ path, want string }{
		"TSV value 2": {rewriteTSVEdge(t, tsvPath, func(row, col, _ int64) (string, bool) {
			return fmt.Sprintf("%d\t%d\t2", row, col), true
		}), "0/1 adjacency"},
		// The reader refuses the block before any edge reaches the check.
		"KRNB block-frame value 2": {binValTwo, "0/1 pattern"},
		// (r+1)·31 + (c−31) = r·31 + c, so the count and XOR fold still agree.
		"TSV negative column": {rewriteTSVEdge(t, tsvPath, func(row, col, val int64) (string, bool) {
			return fmt.Sprintf("%d\t%d\t%d", row+1, col-31, val), col < 31
		}), "0/1 adjacency"},
	}
	for name, c := range bad {
		err := run(context.Background(), []string{"-mhat", "3,4,5", "-loop", "hub", "-split", "2", "-in", c.path})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want the edge rejected as outside the %s", name, err, c.want)
		}
	}
}

// TestShardCountBound: -shard plans at most 2^16 shards, so a larger K
// fails naming the bound instead of allocating a K-entry plan.
func TestShardCountBound(t *testing.T) {
	err := run(context.Background(), []string{"-mhat", "3,4", "-loop", "hub", "-shard", "0/65537"})
	if err == nil || !strings.Contains(err.Error(), "plan bound [1, 65536]") {
		t.Fatalf("-shard 0/65537: %v, want an error naming the 65536-shard plan bound", err)
	}
}
