package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/kron"
)

// A heap profile that cannot be written must surface in run's error — and
// hence the exit status — not just a stderr line: a silently lost profile
// reads as a successful measurement run.
func TestRunSurfacesProfileWriteFailure(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "missing", "heap.prof")
	if err := run([]string{"-mhat", "3,4", "-loop", "hub", "-count", "-memprofile", dest}); err == nil {
		t.Fatal("run succeeded despite an unwritable -memprofile path")
	}
}

// TestStreamBinaryMatchesTSV is the CLI conformance check of the wire
// format: the same design streamed with -format bin decodes to exactly the
// TSV stream's edges, per worker file and in order,
// and the XOR of the chunks' trailer checksums equals the checksum the
// count-only engine computes for the design — the wire carries precisely
// what the design predicts.
func TestStreamBinaryMatchesTSV(t *testing.T) {
	const workers = 2
	args := []string{"-mhat", "3,4,5", "-loop", "hub", "-split", "2", "-workers", strconv.Itoa(workers), "-stream"}
	tsvDir, binDir := t.TempDir(), t.TempDir()
	if err := run(append(args, tsvDir)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, binDir, "-format", "bin")); err != nil {
		t.Fatal(err)
	}

	d, err := kron.FromPoints([]int{3, 4, 5}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal, wantSum, err := g.CountEdges(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	var total, checksum int64
	for p := 0; p < workers; p++ {
		wantEdges := readTSVChunk(t, filepath.Join(tsvDir, fmt.Sprintf("edges_%04d.tsv", p)))
		raw, err := os.ReadFile(filepath.Join(binDir, fmt.Sprintf("edges_%04d.bin", p)))
		if err != nil {
			t.Fatal(err)
		}
		var got []graphio.Edge
		info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(raw), func(batch []graphio.Edge) error {
			got = append(got, batch...)
			return nil
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", p, err)
		}
		if len(got) != len(wantEdges) {
			t.Fatalf("chunk %d: binary carries %d edges, tsv %d", p, len(got), len(wantEdges))
		}
		for i := range got {
			if got[i] != wantEdges[i] {
				t.Fatalf("chunk %d edge %d: binary %+v, tsv %+v", p, i, got[i], wantEdges[i])
			}
		}
		total += info.Edges
		checksum ^= info.Checksum
	}
	if total != wantTotal || checksum != wantSum {
		t.Fatalf("chunks fold to %d/%x, design counts %d/%x", total, checksum, wantTotal, wantSum)
	}
}

// readTSVChunk parses one streamed TSV chunk into edges in stream order.
func readTSVChunk(t *testing.T, path string) []graphio.Edge {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graphio.Edge
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		var e graphio.Edge
		if e.Row, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			t.Fatal(err)
		}
		if e.Col, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			t.Fatal(err)
		}
		if e.Val, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	return edges
}

// TestStreamSingleWorkerBinaryCarriesNNZ: a one-worker chunk is the whole
// stream, so its header must carry the design-time exact count — making the
// file self-validating (a truncated copy fails to decode).
func TestStreamSingleWorkerBinaryCarriesNNZ(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-mhat", "3,4", "-loop", "hub", "-stream", dir, "-format", "bin"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "edges_0000.bin"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(raw), func([]graphio.Edge) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	d, err := kron.FromPoints([]int{3, 4}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	if info.NNZ != d.NumEdges().Int64() {
		t.Fatalf("single-chunk header nnz %d, design says %s", info.NNZ, d.NumEdges())
	}
	if _, err := graphio.ReadBinary(context.Background(), bytes.NewReader(raw[:len(raw)-3]), func([]graphio.Edge) error { return nil }); err == nil {
		t.Fatal("truncated single chunk decoded without error")
	}
}

// TestFormatRequiresStream pins the flag contract: -format means nothing
// outside -stream mode and silently ignoring it would mislead, and a format
// other than tsv or bin, the retired binfixed included, fails before any
// chunk file is created.
func TestFormatRequiresStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chunks")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"bin with -count", []string{"-count", "-format", "bin"}},
		{"unknown format", []string{"-stream", out, "-format", "bogus"}},
		{"retired binfixed", []string{"-stream", out, "-format", "binfixed"}},
	} {
		if err := run(append([]string{"-mhat", "3,4", "-loop", "hub"}, c.args...)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: %s exists after the run failed (stat: %v)", c.name, out, err)
		}
	}
}

// TestShardCountBound: -shard plans at most 2^16 shards, so a larger K
// fails naming the bound instead of allocating a K-entry plan.
func TestShardCountBound(t *testing.T) {
	err := run([]string{"-mhat", "3,4", "-loop", "hub", "-shard", "0/65537", "-count"})
	if err == nil || !strings.Contains(err.Error(), "plan bound [1, 65536]") {
		t.Fatalf("-shard 0/65537: %v, want an error naming the 65536-shard plan bound", err)
	}
}
