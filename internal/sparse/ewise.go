package sparse

import (
	"fmt"

	"repro/internal/semiring"
)

// EWiseMult computes C = A ⊗ B element-wise ("intersecting graphs"): only
// positions stored in both inputs survive, with values multiplied.
func EWiseMult[T any](a, b *COO[T], sr semiring.Semiring[T]) (*COO[T], error) {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		return nil, fmt.Errorf("sparse: EWiseMult dimension mismatch %dx%d vs %dx%d",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols)
	}
	ca, cb := a.Dedupe(sr), b.Dedupe(sr)
	var tr []Triple[T]
	i, j := 0, 0
	for i < len(ca.Tr) && j < len(cb.Tr) {
		ta, tb := ca.Tr[i], cb.Tr[j]
		switch {
		case lessRowMajor(ta, tb):
			i++
		case lessRowMajor(tb, ta):
			j++
		default:
			v := sr.Mul(ta.Val, tb.Val)
			if !sr.IsZero(v) {
				tr = append(tr, Triple[T]{Row: ta.Row, Col: ta.Col, Val: v})
			}
			i++
			j++
		}
	}
	return &COO[T]{NumRows: a.NumRows, NumCols: a.NumCols, Tr: tr}, nil
}

func lessRowMajor[T any](a, b Triple[T]) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}
