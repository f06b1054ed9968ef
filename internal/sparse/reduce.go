package sparse

import (
	"repro/internal/semiring"
)

// ReduceAll folds ⊕ over every stored value of m.
func ReduceAll[T any](m *COO[T], sr semiring.Semiring[T]) T {
	acc := sr.Zero
	for _, t := range m.Tr {
		acc = sr.Add(acc, t.Val)
	}
	return acc
}

// Trace returns ⊕ᵢ A(i,i) over the stored diagonal entries.
func Trace[T any](m *COO[T], sr semiring.Semiring[T]) T {
	acc := sr.Zero
	for _, t := range m.Tr {
		if t.Row == t.Col {
			acc = sr.Add(acc, t.Val)
		}
	}
	return acc
}

// TraceCSR returns ⊕ᵢ A(i,i) for a CSR matrix.
func TraceCSR[T any](m *CSR[T], sr semiring.Semiring[T]) T {
	acc := sr.Zero
	n := m.NumRows
	if m.NumCols < n {
		n = m.NumCols
	}
	for i := 0; i < n; i++ {
		acc = sr.Add(acc, m.At(i, i, sr))
	}
	return acc
}

// RowNNZCounts returns the number of stored entries per row of the canonical
// form of m — the structural (pattern) degree used by the paper's degree
// distributions, where a self-loop contributes 1.
func RowNNZCounts[T any](m *COO[T], sr semiring.Semiring[T]) []int {
	c := m.Dedupe(sr)
	out := make([]int, c.NumRows)
	for _, t := range c.Tr {
		out[t.Row]++
	}
	return out
}

// DegreeHistogram maps structural row degree d to the number of rows with
// that degree, skipping rows of degree 0 (the paper's n(d) has non-zero
// support only).
func DegreeHistogram[T any](m *COO[T], sr semiring.Semiring[T]) map[int]int {
	h := make(map[int]int)
	for _, d := range RowNNZCounts(m, sr) {
		if d > 0 {
			h[d]++
		}
	}
	return h
}
