// Package graphio reads and writes edge lists: the tab-separated
// "row col value" triples format common to Graph500/GraphChallenge tooling,
// MatrixMarket, and the KRNB binary wire format. Its streaming edge writers
// encode one worker's chunk each, the per-processor output the paper's
// parallel generator produces with no coordination.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// WriteTSV writes one "row\tcol\tval" line per stored triple. Indices are
// written 0-based.
func WriteTSV(w io.Writer, m *sparse.COO[int64]) error {
	bw := bufio.NewWriter(w)
	for _, t := range m.Tr {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", t.Row, t.Col, t.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses "row\tcol\tval" lines into a COO matrix with the given
// dimensions. Blank lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader, rows, cols int) (*sparse.COO[int64], error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var tr []sparse.Triple[int64]
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graphio: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		row, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d row: %w", lineNo, err)
		}
		col, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d col: %w", lineNo, err)
		}
		val, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d val: %w", lineNo, err)
		}
		tr = append(tr, sparse.Triple[int64]{Row: row, Col: col, Val: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sparse.NewCOO(rows, cols, tr)
}
