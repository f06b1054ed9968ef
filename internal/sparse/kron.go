package sparse

import (
	"fmt"

	"repro/internal/semiring"
)

// Kron computes the Kronecker product C = A ⊗ B under the semiring's
// multiply, exactly as defined in Section II of the paper:
//
//	C((iA)·mB + iB, (jA)·nB + jB) = A(iA,jA) ⊗ B(iB,jB)
//
// (0-based form). The result has NumRows = A.NumRows·B.NumRows and
// NumCols = A.NumCols·B.NumCols, and nnz(C) = nnz(A)·nnz(B) when both inputs
// are canonical and the semiring has no zero divisors.
func Kron[T any](a, b *COO[T], sr semiring.Semiring[T]) (*COO[T], error) {
	rows, err := MulDim(a.NumRows, b.NumRows)
	if err != nil {
		return nil, err
	}
	cols, err := MulDim(a.NumCols, b.NumCols)
	if err != nil {
		return nil, err
	}
	tr := make([]Triple[T], 0, len(a.Tr)*len(b.Tr))
	for _, ta := range a.Tr {
		rBase := ta.Row * b.NumRows
		cBase := ta.Col * b.NumCols
		for _, tb := range b.Tr {
			tr = append(tr, Triple[T]{
				Row: rBase + tb.Row,
				Col: cBase + tb.Col,
				Val: sr.Mul(ta.Val, tb.Val),
			})
		}
	}
	return &COO[T]{NumRows: rows, NumCols: cols, Tr: tr}, nil
}

// KronN folds Kron left to right over the factor list:
// ⊗ᴺₖ₌₁ Aₖ = (((A₁ ⊗ A₂) ⊗ A₃) ⊗ ...). At least one factor is required.
func KronN[T any](sr semiring.Semiring[T], factors ...*COO[T]) (*COO[T], error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("sparse: KronN requires at least one factor")
	}
	acc := factors[0].Clone()
	for _, f := range factors[1:] {
		next, err := Kron(acc, f, sr)
		if err != nil {
			return nil, err
		}
		acc = next
	}
	return acc, nil
}

// KronOrdered enumerates ⊗ factors in sorted order without a comparison
// sort, calling emit once per stored entry: row-major (CSR order), or
// column-major (CSC order) when colMajor is set. It folds the factors' CSR
// forms row by row. Row i·mF + k of A ⊗ F is row i of A times row k of F,
// and its columns, a·nF + f over the sorted columns a of A's row and f of
// F's row, come out ascending. So sorted factor rows give sorted product
// rows. Column-major order is the row-major order of the transpose,
// (A ⊗ F)ᵀ = Aᵀ ⊗ Fᵀ, with each entry's coordinates swapped back. Factors
// are read in canonical form (ToCSR), so for canonical factors the entries
// are exactly KronN's, sorted. rows and cols are the product's dimensions,
// MulDim-checked before anything is enumerated.
func KronOrdered[T any](sr semiring.Semiring[T], colMajor bool, factors []*COO[T], emit func(row, col int, val T)) (rows, cols int, err error) {
	if len(factors) == 0 {
		return 0, 0, fmt.Errorf("sparse: KronOrdered requires at least one factor")
	}
	rows, cols = 1, 1
	for _, f := range factors {
		if rows, err = MulDim(rows, f.NumRows); err != nil {
			return 0, 0, err
		}
		if cols, err = MulDim(cols, f.NumCols); err != nil {
			return 0, 0, err
		}
	}
	if colMajor {
		out := emit
		emit = func(row, col int, val T) { out(col, row, val) }
	}
	csr := make([]*CSR[T], len(factors))
	for i, f := range factors {
		if colMajor {
			f = f.Transpose()
		}
		csr[i] = f.ToCSR(sr)
	}
	// Fold all but the last factor into one CSR matrix, starting from the
	// 1×1 identity; its product with the last factor streams into emit.
	acc := Identity(1, sr).ToCSR(sr)
	for _, f := range csr[:len(csr)-1] {
		nnz, err := MulDim(acc.NNZ(), f.NNZ())
		if err != nil {
			return 0, 0, err
		}
		next := &CSR[T]{
			NumRows: acc.NumRows * f.NumRows,
			NumCols: acc.NumCols * f.NumCols,
			RowPtr:  make([]int, acc.NumRows*f.NumRows+1),
			ColIdx:  make([]int, 0, nnz),
			Val:     make([]T, 0, nnz),
		}
		kronRows(acc, f, sr, func(row, col int, val T) {
			next.RowPtr[row+1]++
			next.ColIdx = append(next.ColIdx, col)
			next.Val = append(next.Val, val)
		})
		for i := range next.NumRows {
			next.RowPtr[i+1] += next.RowPtr[i]
		}
		acc = next
	}
	kronRows(acc, csr[len(csr)-1], sr, emit)
	return rows, cols, nil
}

// kronRows enumerates a ⊗ f in row-major order.
func kronRows[T any](a, f *CSR[T], sr semiring.Semiring[T], emit func(row, col int, val T)) {
	for i := 0; i < a.NumRows; i++ {
		aCols, aVals := a.Row(i)
		for k := 0; k < f.NumRows; k++ {
			fCols, fVals := f.Row(k)
			row := i*f.NumRows + k
			for x, ac := range aCols {
				base := ac * f.NumCols
				for y, fc := range fCols {
					emit(row, base+fc, sr.Mul(aVals[x], fVals[y]))
				}
			}
		}
	}
}

// MulDim multiplies two dimensions, guarding against int overflow, which on
// 64-bit platforms bounds realizable matrices to ~9.2e18 rows — beyond that
// the designer's big-integer path must be used instead. Exported so every
// dimension product in the module (including the generator's per-worker
// column bands) routes through the same guard.
func MulDim(a, b int) (int, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/b != a || p < 0 {
		return 0, fmt.Errorf("sparse: dimension product %d*%d overflows int", a, b)
	}
	return p, nil
}
