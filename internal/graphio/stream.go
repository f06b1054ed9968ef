package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Edge is one directed adjacency entry in global coordinates — the unit the
// generator streams and the edge writers encode. It lives here, at the
// bottom of the layer stack, so the generator (internal/gen aliases it as
// gen.Edge) and the encoders share one batch type and whole batches move
// between them without conversion or copying.
type Edge struct {
	Row, Col int64
	Val      int64
}

// EdgeWriter encodes edges to an underlying stream, the shape the paper's
// generator produces: edges exist only in flight, never as a materialized
// matrix. WriteEdges encodes a whole batch with buffer management amortized
// across it. Implementations buffer internally; Flush pushes everything
// written so far to the underlying io.Writer (the job service calls it at
// chunk boundaries so HTTP clients see edges while generation is still
// running).
type EdgeWriter interface {
	// WriteEdges encodes a whole batch of "row col value" entries (0-based
	// global indices) in order.
	WriteEdges(batch []Edge) error
	// Comment writes a line the matching reader ignores, used for
	// end-of-stream trailers ("# state=done edges=N"). Implementations
	// whose format forbids inline comments (MatrixMarket permits them only
	// in the header) discard the text and return nil.
	Comment(text string) error
	// Flush writes any buffered output to the underlying writer.
	Flush() error
}

// edgeChunk bounds the bytes WriteEdges encodes between pushes to the
// underlying bufio.Writer, so a large batch amortizes the write calls
// without growing the scratch buffer past a few pages.
const edgeChunk = 1 << 14

// writeEdgeBatch is the one chunked batch encoder behind both writers'
// WriteEdges: entries are appended to scratch with the format's field
// separator and index base (MatrixMarket is 1-based) and pushed to bw in
// edgeChunk pieces. Fields are formatted by the two-digit-LUT appendInt fast
// path (byte-parity with strconv pinned by the formatter tests). The "row␣"
// prefix is rendered once per run of equal rows and memcpy'd for the rest —
// generated streams arrive row-major within each block (the band-order
// guarantee), so most edges reuse the previous line's prefix — and the
// "␣val⏎" suffix is cached the same way, since a Kronecker stream's values
// come from a handful of star-weight products and run for whole blocks.
// Returns the (possibly regrown) scratch truncated for reuse.
func writeEdgeBatch(bw *bufio.Writer, scratch []byte, batch []Edge, sep byte, base int64) ([]byte, error) {
	// prefix caches the rendered "row␣" bytes of the current row run, suffix
	// the "␣val⏎" bytes of the current value run. An int64 is at most 20
	// digits (21 with the sign) plus the separator/newline.
	var prefix, suffix [22]byte
	plen, slen := 0, 0
	var prevRow, prevVal int64
	b := scratch[:0]
	for _, e := range batch {
		if plen == 0 || e.Row != prevRow {
			p := appendInt(prefix[:0], e.Row+base)
			p = append(p, sep)
			plen = len(p)
			prevRow = e.Row
		}
		if slen == 0 || e.Val != prevVal {
			s := append(suffix[:0], sep)
			s = appendInt(s, e.Val)
			s = append(s, '\n')
			slen = len(s)
			prevVal = e.Val
		}
		b = append(b, prefix[:plen]...)
		b = appendInt(b, e.Col+base)
		b = append(b, suffix[:slen]...)
		if len(b) >= edgeChunk {
			if _, err := bw.Write(b); err != nil {
				return b[:0], err
			}
			b = b[:0]
		}
	}
	if len(b) == 0 {
		return b, nil
	}
	_, err := bw.Write(b)
	return b[:0], err
}

// TSVEdgeWriter streams "row\tcol\tval" lines; the output of a complete
// stream is readable by ReadTSV. Comments are written as "# ..." lines,
// which ReadTSV skips.
type TSVEdgeWriter struct {
	bw  *bufio.Writer
	buf []byte
}

// NewTSVEdgeWriter returns a TSV edge stream over w.
func NewTSVEdgeWriter(w io.Writer) *TSVEdgeWriter {
	return &TSVEdgeWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, 64)}
}

// WriteEdges encodes a batch of tab-separated triple lines through the
// shared chunked encoder — per-call overhead paid once per chunk instead of
// once per edge.
func (t *TSVEdgeWriter) WriteEdges(batch []Edge) error {
	b, err := writeEdgeBatch(t.bw, t.buf, batch, '\t', 0)
	t.buf = b
	return err
}

// Comment writes "# text" on its own line.
func (t *TSVEdgeWriter) Comment(text string) error {
	_, err := fmt.Fprintf(t.bw, "# %s\n", sanitizeComment(text))
	return err
}

// Flush drains the internal buffer.
func (t *TSVEdgeWriter) Flush() error { return t.bw.Flush() }

// MatrixMarketEdgeWriter streams MatrixMarket coordinate entries. The header
// — which must declare the total entry count up front — is written at
// construction from the design-time exact edge count, the paper's point that
// a designed graph's nnz is known before a single edge is generated. The
// output of a complete stream is readable by ReadMatrixMarket. Comments are
// written as "%" lines, which ReadMatrixMarket skips.
type MatrixMarketEdgeWriter struct {
	bw  *bufio.Writer
	buf []byte
}

// NewMatrixMarketEdgeWriter writes the banner, any header comments, and the
// size line for a rows×cols matrix with exactly nnz entries, then returns
// the entry stream. Comments are only legal in the header block of the
// coordinate format, so they must be supplied here, up front.
func NewMatrixMarketEdgeWriter(w io.Writer, rows, cols, nnz int64, comments ...string) (*MatrixMarketEdgeWriter, error) {
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("graphio: negative MatrixMarket dimensions %dx%d nnz=%d", rows, cols, nnz)
	}
	m := &MatrixMarketEdgeWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, 64)}
	if _, err := fmt.Fprintln(m.bw, "%%MatrixMarket matrix coordinate integer general"); err != nil {
		return nil, err
	}
	for _, c := range comments {
		if _, err := fmt.Fprintf(m.bw, "%% %s\n", sanitizeComment(c)); err != nil {
			return nil, err
		}
	}
	if _, err := fmt.Fprintf(m.bw, "%d %d %d\n", rows, cols, nnz); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteEdges encodes a batch of coordinate entries (1-based) through the
// shared chunked encoder — per-call overhead paid once per chunk instead of
// once per edge.
func (m *MatrixMarketEdgeWriter) WriteEdges(batch []Edge) error {
	b, err := writeEdgeBatch(m.bw, m.buf, batch, ' ', 1)
	m.buf = b
	return err
}

// Comment discards the text: the coordinate format permits comments only in
// the header (pass those to NewMatrixMarketEdgeWriter), and emitting them
// among the entries would break strict readers. A truncated stream is still
// detectable without a trailer — the header's nnz states exactly how many
// entries a complete stream carries.
func (m *MatrixMarketEdgeWriter) Comment(string) error { return nil }

// Flush drains the internal buffer.
func (m *MatrixMarketEdgeWriter) Flush() error { return m.bw.Flush() }

// sanitizeComment keeps comments single-line so they cannot inject entries.
func sanitizeComment(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "\n", " "), "\r", " ")
}
