package graphio

import (
	"strings"
	"testing"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// testTriples is a 0/1 pattern, the only kind a run carries.
func testTriples() []sparse.Triple[int64] {
	return []sparse.Triple[int64]{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 3, Val: 1},
		{Row: 3, Col: 3, Val: 1},
	}
}

// tripleEdges returns the triples as edges.
func tripleEdges(tr []sparse.Triple[int64]) []Edge {
	edges := make([]Edge, len(tr))
	for i, t := range tr {
		edges[i] = Edge{Row: int64(t.Row), Col: int64(t.Col), Val: t.Val}
	}
	return edges
}

func TestTSVEdgeWriterRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewTSVEdgeWriter(&sb)
	if err := w.Comment("generated by test"); err != nil {
		t.Fatal(err)
	}
	if err := writeEdgeRuns(w, tripleEdges(testTriples())); err != nil {
		t.Fatal(err)
	}
	if err := w.Comment("state=done edges=4"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(strings.NewReader(sb.String()), 4, 4)
	if err != nil {
		t.Fatalf("ReadTSV: %v\noutput:\n%s", err, sb.String())
	}
	want := sparse.MustCOO(4, 4, testTriples())
	if !sparse.Equal(got, want, semiring.PlusTimesInt64()) {
		t.Fatalf("round trip mismatch:\n%s", sb.String())
	}
}

func TestTSVEdgeWriterMatchesWriteTSV(t *testing.T) {
	m := sparse.MustCOO(4, 4, testTriples())
	var whole, streamed strings.Builder
	if err := WriteTSV(&whole, m); err != nil {
		t.Fatal(err)
	}
	w := NewTSVEdgeWriter(&streamed)
	if err := writeEdgeRuns(w, tripleEdges(m.Tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if whole.String() != streamed.String() {
		t.Fatalf("edge-at-a-time output differs from WriteTSV:\n%q\nvs\n%q",
			streamed.String(), whole.String())
	}
}

func TestMatrixMarketEdgeWriterRoundTrip(t *testing.T) {
	var sb strings.Builder
	tr := testTriples()
	w, err := NewMatrixMarketEdgeWriter(&sb, 4, 4, int64(len(tr)), "kronserve job j000001")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEdgeRuns(w, tripleEdges(tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Comment("state=done"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The header comment lands between banner and size line; the inline
	// comment is discarded (the format only allows header comments), so
	// strict parsers see banner, comments, size line, then entries only.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3+len(tr) {
		t.Fatalf("want %d lines (banner+comment+size+%d entries), got %d:\n%s",
			3+len(tr), len(tr), len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "% kronserve job") {
		t.Fatalf("header comment misplaced: %q", lines[1])
	}
	if strings.Contains(out, "state=done") {
		t.Fatalf("inline comment leaked into entry section:\n%s", out)
	}
	got, err := ReadMatrixMarket(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v\noutput:\n%s", err, out)
	}
	want := sparse.MustCOO(4, 4, tr)
	if !sparse.Equal(got, want, semiring.PlusTimesInt64()) {
		t.Fatalf("round trip mismatch:\n%s", out)
	}
}

func TestMatrixMarketEdgeWriterMatchesWriteMatrixMarket(t *testing.T) {
	m := sparse.MustCOO(4, 4, testTriples())
	var whole, streamed strings.Builder
	if err := WriteMatrixMarket(&whole, m); err != nil {
		t.Fatal(err)
	}
	w, err := NewMatrixMarketEdgeWriter(&streamed, int64(m.NumRows), int64(m.NumCols), int64(m.NNZ()))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEdgeRuns(w, tripleEdges(m.Tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if whole.String() != streamed.String() {
		t.Fatalf("edge-at-a-time output differs from WriteMatrixMarket:\n%q\nvs\n%q",
			streamed.String(), whole.String())
	}
}

// TestWriteEdgesMatchesWriteEdge proves the run encoder is byte-for-byte
// the whole-matrix writers WriteTSV and WriteMatrixMarket on both formats,
// for a run long enough, at offsets wide enough, to cross the edgeChunk
// internal flush boundary more than once.
func TestWriteEdgesMatchesWriteEdge(t *testing.T) {
	// Wide offsets make each line ~30 bytes, so 2000 edges cross the
	// 16 KiB edgeChunk threshold several times.
	local := make([]Edge, 2000)
	for i := range local {
		local[i] = Edge{Row: int64(i / 3), Col: int64(i%3) * 999_983, Val: 1}
	}
	run := Run{Block: mustBlock(local), Hi: len(local), RowBase: 1_000_000_007 << 8, ColBase: 999_999_937 << 8}
	var tr []sparse.Triple[int64]
	for _, e := range run.AppendEdges(nil) {
		tr = append(tr, sparse.Triple[int64]{Row: int(e.Row), Col: int(e.Col), Val: e.Val})
	}
	m := sparse.MustCOO(1<<40, 1<<40, tr)
	t.Run("tsv", func(t *testing.T) {
		var whole, streamed strings.Builder
		if err := WriteTSV(&whole, m); err != nil {
			t.Fatal(err)
		}
		w := NewTSVEdgeWriter(&streamed)
		if err := w.WriteRun(run); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if whole.String() != streamed.String() {
			t.Fatal("TSV run output differs from WriteTSV")
		}
	})
	t.Run("matrixmarket", func(t *testing.T) {
		var whole, streamed strings.Builder
		if err := WriteMatrixMarket(&whole, m); err != nil {
			t.Fatal(err)
		}
		w, err := NewMatrixMarketEdgeWriter(&streamed, 1<<40, 1<<40, int64(len(local)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRun(run); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if whole.String() != streamed.String() {
			t.Fatal("MatrixMarket run output differs from WriteMatrixMarket")
		}
	})
	t.Run("empty-batch", func(t *testing.T) {
		var sb strings.Builder
		w := NewTSVEdgeWriter(&sb)
		if err := w.WriteRun(Run{Block: run.Block, Lo: 5, Hi: 5}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if sb.Len() != 0 {
			t.Fatalf("empty run wrote %q", sb.String())
		}
	})
}

func TestMatrixMarketEdgeWriterRejectsNegativeDims(t *testing.T) {
	var sb strings.Builder
	if _, err := NewMatrixMarketEdgeWriter(&sb, -1, 4, 0); err == nil {
		t.Fatal("want error for negative rows")
	}
}

func TestCommentSanitization(t *testing.T) {
	var sb strings.Builder
	w := NewTSVEdgeWriter(&sb)
	if err := w.Comment("line one\nline two"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "\n") != 1 {
		t.Fatalf("newline not sanitized: %q", sb.String())
	}
}
