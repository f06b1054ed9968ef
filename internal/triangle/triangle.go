// Package triangle counts triangles in realized graphs two independent ways:
// the linear-algebra formula of Section IV-A, Ntri = (1/6)·1ᵀ(AA ⊗ A)1,
// via the sparse substrate, and a combinatorial node-iterator. The COO entry
// points below evaluate both on the full adjacency matrix and serve as the
// oracle; the CSR counters in csr.go evaluate both on its degree-oriented
// half, which is what the validation harness uses to confirm the designer's
// closed-form predictions.
package triangle

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// CountLinearAlgebra evaluates Ntri = (1/6)·1ᵀ((A·A) ⊗ A)1 on a symmetric
// 0/1 adjacency matrix with an empty diagonal. The element-wise product with
// A restricts the 2-path counts in A·A to closed triangles; each triangle is
// counted 6 times (3 vertices × 2 orientations). The product is evaluated
// through the masked multiply (A·A masked by A's pattern), so memory stays
// O(nnz) even when A·A itself would be dense — as it is for the hub-heavy
// graphs this library designs.
func CountLinearAlgebra(a *sparse.COO[int64]) (int64, error) {
	sr := semiring.PlusTimesInt64()
	if a.NumRows != a.NumCols {
		return 0, fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	csr := a.ToCSR(sr)
	hadamard, err := sparse.MxMMasked(csr, csr, csr, sr)
	if err != nil {
		return 0, err
	}
	total := sparse.ReduceAll(hadamard.ToCOO(), sr)
	if total%6 != 0 {
		return 0, fmt.Errorf("triangle: 1ᵀ(AA⊗A)1 = %d not divisible by 6; input not a simple symmetric graph?", total)
	}
	return total / 6, nil
}

// CountNodeIterator counts triangles combinatorially with the edge-iterator
// strategy: for every edge (u, w) with u < w it counts the common neighbors
// |N(u) ∩ N(w)| by merging the two sorted adjacency lists; each triangle is
// found once per edge, so the total divides by 3. Self-loops are ignored.
// It serves as an independent cross-check on the algebraic count.
func CountNodeIterator(a *sparse.COO[int64]) (int64, error) {
	sr := semiring.PlusTimesInt64()
	if a.NumRows != a.NumCols {
		return 0, fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	csr := a.ToCSR(sr)
	var count int64
	for u := 0; u < csr.NumRows; u++ {
		uCols, _ := csr.Row(u)
		for _, w := range uCols {
			if w <= u {
				continue // lower triangle or self-loop; symmetric input
			}
			wCols, _ := csr.Row(w)
			count += commonNeighbors(uCols, wCols, u, w)
		}
	}
	// Each triangle is found once per edge.
	if count%3 != 0 {
		return 0, fmt.Errorf("triangle: edge-iterator count %d not divisible by 3; input not symmetric?", count)
	}
	return count / 3, nil
}

// commonNeighbors merge-counts indices present in both sorted lists,
// excluding the endpoints themselves (self-loop entries).
func commonNeighbors(a, b []int, u, w int) int64 {
	var n int64
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			if a[x] != u && a[x] != w {
				n++
			}
			x++
			y++
		}
	}
	return n
}

// CountBoth runs both algorithms and errors if they disagree — a cheap
// self-consistency check the validation harness leans on.
func CountBoth(a *sparse.COO[int64]) (int64, error) {
	la, err := CountLinearAlgebra(a)
	if err != nil {
		return 0, err
	}
	ni, err := CountNodeIterator(a)
	if err != nil {
		return 0, err
	}
	if la != ni {
		return 0, fmt.Errorf("triangle: algorithms disagree: linear-algebra %d, node-iterator %d", la, ni)
	}
	return la, nil
}
