package triangle

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// --- CSR-native parallel counters ----------------------------------------
//
// The streaming validation engine holds the measured graph as a canonical
// CSR pattern A, so the counters below read it directly: no COO round trip,
// no re-sort, no dedupe, and no values — only the pattern. They never
// intersect A's rows, though. On the hub-dominated graphs this library
// designs, every leaf–hub edge would pay for the hub's whole row. Instead
// both counters run over the degree-oriented pattern U (see Oriented), which
// keeps each undirected edge once, pointing from the endpoint that ranks
// lower by (degree, id) to the higher one. A triangle whose vertices rank
// a < b < c then appears exactly once, as the U entry (a, b) whose rows
// share c, and no U row is longer than √nnz(A): on the fig4 workload the
// longest row falls from 20,399 entries to 120. This is the forward, or
// L·L∘L, form of Azad, Buluç & Gilbert (IPDPSW 2015) and Wolf et al.
// (HPEC 2017). Partial sums are integers, so any partition of U's entries
// yields the identical total.

// cancelCheckStride is how much kernel work (list elements visited) a
// triangle worker does between context checks: coarse enough to stay off
// the hot path, fine enough that a cancelled validation stops promptly.
const cancelCheckStride = 1 << 12

// maxOrientedVertices is the largest vertex count whose ids fit U's int32
// columns; the validation engine's vertex cap is the same 2^31.
const maxOrientedVertices = math.MaxInt32 + 1

// Oriented is the degree-oriented pattern U of a simple symmetric adjacency
// pattern A: row i holds the neighbors j of i that rank higher, meaning
// (deg i, i) < (deg j, j), in A's ascending column order. Columns are int32,
// so U costs 4 bytes per undirected edge, 2 per entry of A.
type Oriented struct {
	n      int
	rowPtr []int
	cols   []int32
}

// NNZ returns U's entry count: one per undirected edge of A.
func (u *Oriented) NNZ() int { return len(u.cols) }

func (u *Oriented) row(i int) []int32 { return u.cols[u.rowPtr[i]:u.rowPtr[i+1]] }

// Orient builds U from a with np workers, each over a band of rows with an
// equal share of rows plus entries, and on the way proves that a is the
// pattern of a simple symmetric graph: a is square, has no diagonal entry,
// every row is strictly increasing, every U entry's mirror is present
// (found by binary search), and 2·nnz(U) = nnz(a). The last two suffice for
// symmetry: mirroring maps U's entries one-to-one into the rest of a, and
// the count leaves no entry of a outside that map. The proof costs
// O(nnz log d) time and no memory beyond U; input that fails it returns an
// error, never a count. a must hold CSR's structural invariants (row
// pointers from 0 to nnz, non-decreasing); its values are never read.
//
// st, when non-nil, records one batch per worker: its busy time and the U
// entries it emitted.
func Orient[T any](ctx context.Context, a *sparse.CSR[T], np int, st *obs.Stage) (*Oriented, error) {
	if a.NumRows != a.NumCols {
		return nil, fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	if np < 1 {
		return nil, fmt.Errorf("triangle: need at least one worker, got %d", np)
	}
	n := a.NumRows
	if int64(n) > maxOrientedVertices {
		return nil, fmt.Errorf("triangle: %d vertices exceed the oriented pattern's int32 ids", n)
	}
	rowPtr, colIdx := a.RowPtr, a.ColIdx
	bands := rowBands(rowPtr, np)
	found := make([]int, len(bands))
	busy := make([]time.Duration, len(bands))
	u := &Oriented{n: n, rowPtr: make([]int, n+1)}

	// Pass 1: check every row and count each band's U entries.
	err := parallel.RunContext(ctx, len(bands), func(ctx context.Context, p int) error {
		t0 := time.Now()
		up, untilCheck := 0, cancelCheckStride
		for i := bands[p].Lo; i < bands[p].Hi; i++ {
			cols := colIdx[rowPtr[i]:rowPtr[i+1]]
			prev := -1
			for _, j := range cols {
				switch {
				case j < 0 || j >= n:
					return fmt.Errorf("triangle: column %d out of range in row %d", j, i)
				case j == i:
					return fmt.Errorf("triangle: diagonal entry (%d,%d); the graph must be simple", i, i)
				case j <= prev:
					return fmt.Errorf("triangle: row %d not strictly increasing at column %d (duplicate or unsorted)", i, j)
				}
				prev = j
				if ranksBelow(rowPtr, i, len(cols), j) {
					if !hasCol(colIdx, rowPtr[j], rowPtr[j+1], i) {
						return fmt.Errorf("triangle: entry (%d,%d) has no mirror (%d,%d); adjacency not symmetric", i, j, j, i)
					}
					up++
				}
			}
			if untilCheck -= len(cols) + 1; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				untilCheck = cancelCheckStride
			}
		}
		found[p], busy[p] = up, time.Since(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(bands))
	total := 0
	for p, f := range found {
		starts[p] = total
		total += f
	}
	if 2*total != len(colIdx) {
		return nil, fmt.Errorf("triangle: %d entries hold %d oriented edges, want half; adjacency not symmetric",
			len(colIdx), total)
	}

	// Pass 2: each band copies its rows' up-neighbors from its start offset
	// on and writes their row ends; band p writes rowPtr only at its own
	// rows' ends, so bands share nothing.
	u.cols = make([]int32, total)
	err = parallel.RunContext(ctx, len(bands), func(ctx context.Context, p int) error {
		t0 := time.Now()
		pos := starts[p]
		for i := bands[p].Lo; i < bands[p].Hi; i++ {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			cols := colIdx[rowPtr[i]:rowPtr[i+1]]
			for _, j := range cols {
				if ranksBelow(rowPtr, i, len(cols), j) {
					u.cols[pos] = int32(j)
					pos++
				}
			}
			u.rowPtr[i+1] = pos
		}
		busy[p] += time.Since(t0)
		st.RecordWorker(p, found[p], busy[p])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return u, nil
}

// ranksBelow reports whether vertex i, of degree di, ranks below vertex j
// by (degree, id) — whether edge {i, j} belongs to U's row i.
func ranksBelow(rowPtr []int, i, di, j int) bool {
	dj := rowPtr[j+1] - rowPtr[j]
	return di < dj || (di == dj && i < j)
}

// hasCol binary-searches colIdx[lo:hi] for want.
func hasCol(colIdx []int, lo, hi, want int) bool {
	end := hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if colIdx[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < end && colIdx[lo] == want
}

// rowBands splits rows into at most np contiguous, non-empty bands of about
// equal weight, counting each row's entries, which the scan visits, plus
// one for the row itself, so runs of empty rows still count. An empty
// matrix gets one empty band.
func rowBands(rowPtr []int, np int) []parallel.Range {
	n := len(rowPtr) - 1
	total := int64(rowPtr[n] + n)
	out := make([]parallel.Range, 0, np)
	lo := 0
	for k := 1; k <= np && lo < n; k++ {
		hi := n
		if k < np {
			target := total * int64(k) / int64(np)
			hi = lo + sort.Search(n-lo, func(r int) bool { return int64(rowPtr[lo+r]+lo+r) >= target })
		}
		if hi > lo {
			out = append(out, parallel.Range{Lo: lo, Hi: hi})
			lo = hi
		}
	}
	if len(out) == 0 {
		out = append(out, parallel.Range{})
	}
	return out
}

// bands partitions U's entries into min(nb, NNZ()) contiguous [lo, hi)
// ranges of equal size, up to one entry, covering [0, NNZ()) in order; an
// empty U gets one empty range. Each worker takes bandsPerWorker of them,
// interleaved across the entry space, which evens out how the work per
// entry varies without a weighted scan of U.
func (u *Oriented) bands(nb int) [][2]int {
	nnz := u.NNZ()
	nb = max(1, min(nb, nnz))
	out := make([][2]int, nb)
	for b := range out {
		out[b] = [2]int{b * nnz / nb, (b + 1) * nnz / nb}
	}
	return out
}

// bandsPerWorker is how many bands each worker takes in an exact count.
const bandsPerWorker = 16

// rowOf returns the row holding U entry k.
func (u *Oriented) rowOf(k int) int {
	return sort.Search(u.n, func(i int) bool { return u.rowPtr[i+1] > k })
}

// CountBoth counts U's triangles with np workers and both kernels over the
// same bands — the sorted-list intersection of the linear-algebra formula
// and the marker-based forward node-iterator — and errors if they disagree.
// st records as in overBands, once per kernel.
func (u *Oriented) CountBoth(ctx context.Context, np int, st *obs.Stage) (int64, error) {
	bands := u.bands(bandsPerWorker * np)
	la, err := u.overBands(ctx, bands, np, st, u.intersector)
	if err != nil {
		return 0, err
	}
	ni, err := u.overBands(ctx, bands, np, st, u.marker)
	if err != nil {
		return 0, err
	}
	if la != ni {
		return 0, fmt.Errorf("triangle: algorithms disagree: linear-algebra %d, node-iterator %d", la, ni)
	}
	return la, nil
}

// bandKernel counts one band's share of the triangles: U entries [lo, hi).
type bandKernel func(ctx context.Context, lo, hi int) (int64, error)

// overBands runs a kernel over every band, spread over up to np workers —
// band b on worker b mod np, each with its own kernel from newKernel — and
// sums the results. st, when non-nil, records one batch per worker: its
// busy time and the U entries it processed.
func (u *Oriented) overBands(ctx context.Context, bands [][2]int, np int, st *obs.Stage,
	newKernel func() bandKernel) (int64, error) {
	if np < 1 {
		return 0, fmt.Errorf("triangle: need at least one worker, got %d", np)
	}
	workers := min(np, len(bands))
	if workers == 0 {
		return 0, ctx.Err()
	}
	sums := make([]int64, workers)
	err := parallel.RunContext(ctx, workers, func(ctx context.Context, p int) error {
		t0 := time.Now()
		kernel := newKernel()
		entries := 0
		for b := p; b < len(bands); b += workers {
			s, err := kernel(ctx, bands[b][0], bands[b][1])
			if err != nil {
				return err
			}
			sums[p] += s
			entries += bands[b][1] - bands[b][0]
		}
		st.RecordWorker(p, entries, time.Since(t0))
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	return total, nil
}

// intersector returns the linear-algebra kernel: each U entry (i, j) adds
// (U·Uᵀ)(i, j) = |Uᵢ ∩ Uⱼ|, merge-counted over the two id-sorted rows.
func (u *Oriented) intersector() bandKernel {
	return func(ctx context.Context, lo, hi int) (int64, error) {
		var acc int64
		i := u.rowOf(lo)
		untilCheck := cancelCheckStride
		for k := lo; k < hi; k++ {
			for u.rowPtr[i+1] <= k {
				i++
			}
			a, b := u.row(i), u.row(int(u.cols[k]))
			acc += mergeCount(a, b)
			if untilCheck -= len(a) + len(b) + 1; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				untilCheck = cancelCheckStride
			}
		}
		return acc, nil
	}
}

// mergeCount counts the values two ascending lists share.
func mergeCount(a, b []int32) int64 {
	var n int64
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			n++
			x++
			y++
		}
	}
	return n
}

// marker returns the forward node-iterator kernel with its own marker, a
// bitset of one bit per vertex: for each row i the kernel marks Uᵢ, each
// entry (i, j) adds the marked members of Uⱼ, and the row's marks are
// cleared as the kernel leaves it, so the bitset is all zero between bands.
func (u *Oriented) marker() bandKernel {
	mark := make([]uint64, (u.n+63)/64)
	return func(ctx context.Context, lo, hi int) (int64, error) {
		var acc int64
		untilCheck := cancelCheckStride
		for k, i := lo, u.rowOf(lo); k < hi; i++ {
			end := min(hi, u.rowPtr[i+1])
			if k >= end {
				continue
			}
			ri := u.row(i)
			for _, c := range ri {
				mark[c>>6] |= 1 << uint(c&63)
			}
			for ; k < end; k++ {
				rj := u.row(int(u.cols[k]))
				for _, c := range rj {
					acc += int64(mark[c>>6] >> uint(c&63) & 1)
				}
				if untilCheck -= len(rj) + 1; untilCheck <= 0 {
					if err := ctx.Err(); err != nil {
						return 0, err
					}
					untilCheck = cancelCheckStride
				}
			}
			for _, c := range ri {
				mark[c>>6] = 0
			}
		}
		return acc, nil
	}
}

// CountLinearAlgebraCSR evaluates Ntri = 1ᵀ((U·Uᵀ) ⊗ U)1, the oriented form
// of Section IV-A's formula, on the pattern of a with np workers: Orient
// checks a and builds U, then sorted-list intersection counts each triangle
// once.
func CountLinearAlgebraCSR[T any](ctx context.Context, a *sparse.CSR[T], np int) (int64, error) {
	u, err := Orient(ctx, a, np, nil)
	if err != nil {
		return 0, err
	}
	return u.overBands(ctx, u.bands(bandsPerWorker*np), np, nil, u.intersector)
}

// CountNodeIteratorCSR is the combinatorial cross-check on the pattern of
// a: the forward node-iterator over U with a per-worker marker, np workers.
func CountNodeIteratorCSR[T any](ctx context.Context, a *sparse.CSR[T], np int) (int64, error) {
	u, err := Orient(ctx, a, np, nil)
	if err != nil {
		return 0, err
	}
	return u.overBands(ctx, u.bands(bandsPerWorker*np), np, nil, u.marker)
}

// CountBothCSR orients a once and runs both counters over U with np workers
// each, erroring if they disagree — the validation engine's
// self-consistency check.
func CountBothCSR[T any](ctx context.Context, a *sparse.CSR[T], np int) (int64, error) {
	u, err := Orient(ctx, a, np, nil)
	if err != nil {
		return 0, err
	}
	return u.CountBoth(ctx, np, nil)
}
