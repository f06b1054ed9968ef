// Package sparse implements the sparse linear-algebra substrate the paper's
// Kronecker graph machinery is built on: coordinate (COO) and compressed
// sparse row (CSR) matrices over an arbitrary semiring, with Kronecker
// products, sparse matrix-matrix multiply, element-wise multiplication,
// transposition, and reductions.
//
// All matrices are rectangular with 0-based indices. Operations never mutate
// their inputs unless documented otherwise.
package sparse

import (
	"fmt"
	"slices"

	"repro/internal/semiring"
)

// Triple is one stored entry of a COO matrix: value Val at (Row, Col).
type Triple[T any] struct {
	Row, Col int
	Val      T
}

// COO is a coordinate-format sparse matrix. Triples may be unsorted and may
// contain duplicates until Dedupe is called; most consuming operations state
// whether they require canonical (sorted, deduplicated) input.
type COO[T any] struct {
	NumRows, NumCols int
	Tr               []Triple[T]
}

// NewCOO constructs a COO matrix, validating the dimensions and that every
// triple lies in bounds.
func NewCOO[T any](rows, cols int, tr []Triple[T]) (*COO[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	for _, t := range tr {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: triple (%d,%d) out of bounds for %dx%d matrix",
				t.Row, t.Col, rows, cols)
		}
	}
	return &COO[T]{NumRows: rows, NumCols: cols, Tr: tr}, nil
}

// MustCOO is NewCOO that panics on error, for literals in tests and examples.
func MustCOO[T any](rows, cols int, tr []Triple[T]) *COO[T] {
	m, err := NewCOO(rows, cols, tr)
	if err != nil {
		panic(err)
	}
	return m
}

// NNZ returns the number of stored entries (including any explicit zeros and
// duplicates still present).
func (m *COO[T]) NNZ() int { return len(m.Tr) }

// Clone returns a deep copy of m.
func (m *COO[T]) Clone() *COO[T] {
	tr := make([]Triple[T], len(m.Tr))
	copy(tr, m.Tr)
	return &COO[T]{NumRows: m.NumRows, NumCols: m.NumCols, Tr: tr}
}

// SortRowMajor sorts the triples in place by (row, col). slices.SortFunc
// monomorphizes the comparator, avoiding sort.Slice's reflect.Swapper on
// what is the hottest sort in the materialized pipeline.
func (m *COO[T]) SortRowMajor() {
	slices.SortFunc(m.Tr, func(a, b Triple[T]) int {
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Col - b.Col
	})
}

// Dedupe returns a canonical copy of m: triples sorted row-major, duplicates
// combined with sr.Add, and entries equal to sr.Zero dropped.
func (m *COO[T]) Dedupe(sr semiring.Semiring[T]) *COO[T] {
	c := m.Clone()
	c.SortRowMajor()
	out := c.Tr[:0]
	for _, t := range c.Tr {
		if n := len(out); n > 0 && out[n-1].Row == t.Row && out[n-1].Col == t.Col {
			out[n-1].Val = sr.Add(out[n-1].Val, t.Val)
		} else {
			out = append(out, t)
		}
	}
	kept := out[:0]
	for _, t := range out {
		if !sr.IsZero(t.Val) {
			kept = append(kept, t)
		}
	}
	c.Tr = kept
	return c
}

// Transpose returns mᵀ (rows and columns of every triple swapped).
func (m *COO[T]) Transpose() *COO[T] {
	tr := make([]Triple[T], len(m.Tr))
	for i, t := range m.Tr {
		tr[i] = Triple[T]{Row: t.Col, Col: t.Row, Val: t.Val}
	}
	return &COO[T]{NumRows: m.NumCols, NumCols: m.NumRows, Tr: tr}
}

// IsSymmetric reports whether the matrix equals its transpose under sr.
func (m *COO[T]) IsSymmetric(sr semiring.Semiring[T]) bool {
	return Equal(m, m.Transpose(), sr)
}

// At returns the stored value at (i, j) after deduplication, or sr.Zero if
// no entry exists. It is O(nnz); intended for tests and small matrices.
func (m *COO[T]) At(i, j int, sr semiring.Semiring[T]) T {
	acc := sr.Zero
	for _, t := range m.Tr {
		if t.Row == i && t.Col == j {
			acc = sr.Add(acc, t.Val)
		}
	}
	return acc
}

// Remove deletes all stored triples at (i, j) and reports how many were
// removed. It is how the paper's "set a single value back to zero" self-loop
// removal is expressed on a realized matrix.
func (m *COO[T]) Remove(i, j int) int {
	out := m.Tr[:0]
	removed := 0
	for _, t := range m.Tr {
		if t.Row == i && t.Col == j {
			removed++
			continue
		}
		out = append(out, t)
	}
	m.Tr = out
	return removed
}

// Equal reports whether a and b have identical dimensions and identical
// canonical triples under sr.
func Equal[T any](a, b *COO[T], sr semiring.Semiring[T]) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		return false
	}
	ca, cb := a.Dedupe(sr), b.Dedupe(sr)
	if len(ca.Tr) != len(cb.Tr) {
		return false
	}
	for i := range ca.Tr {
		ta, tb := ca.Tr[i], cb.Tr[i]
		if ta.Row != tb.Row || ta.Col != tb.Col || !sr.Eq(ta.Val, tb.Val) {
			return false
		}
	}
	return true
}

// Identity returns the n×n identity matrix of the semiring (sr.One on the
// diagonal).
func Identity[T any](n int, sr semiring.Semiring[T]) *COO[T] {
	tr := make([]Triple[T], n)
	for i := 0; i < n; i++ {
		tr[i] = Triple[T]{Row: i, Col: i, Val: sr.One}
	}
	return &COO[T]{NumRows: n, NumCols: n, Tr: tr}
}

// Dense expands m into a row-major 2-D slice, combining duplicates with
// sr.Add. Intended for tests and small examples only.
func (m *COO[T]) Dense(sr semiring.Semiring[T]) [][]T {
	d := make([][]T, m.NumRows)
	for i := range d {
		row := make([]T, m.NumCols)
		for j := range row {
			row[j] = sr.Zero
		}
		d[i] = row
	}
	for _, t := range m.Tr {
		d[t.Row][t.Col] = sr.Add(d[t.Row][t.Col], t.Val)
	}
	return d
}

// FromDense builds a COO matrix from a dense row-major slice, storing only
// entries that are not sr.Zero.
func FromDense[T any](d [][]T, sr semiring.Semiring[T]) *COO[T] {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	var tr []Triple[T]
	for i, row := range d {
		for j, v := range row {
			if !sr.IsZero(v) {
				tr = append(tr, Triple[T]{Row: i, Col: j, Val: v})
			}
		}
	}
	return &COO[T]{NumRows: rows, NumCols: cols, Tr: tr}
}

// String renders a compact description, listing up to 16 triples.
func (m *COO[T]) String() string {
	s := fmt.Sprintf("COO %dx%d nnz=%d", m.NumRows, m.NumCols, len(m.Tr))
	n := len(m.Tr)
	if n > 16 {
		n = 16
	}
	for _, t := range m.Tr[:n] {
		s += fmt.Sprintf(" (%d,%d)=%v", t.Row, t.Col, t.Val)
	}
	if len(m.Tr) > 16 {
		s += " ..."
	}
	return s
}
