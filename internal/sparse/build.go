package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
)

// CSRBuilder assembles a CSR matrix from per-worker edge streams with a
// parallel counting sort on row indices — no comparison sort, no global
// triple slice, no cross-worker synchronization. It is the merge step of the
// streaming measurement engine: each of W workers owns a band of the edge
// stream and reports every edge twice, once to Count (pass 1) and once to
// Place (pass 2), in the same per-worker order both times.
//
//	b, _ := NewCSRBuilder[int64](rows, cols, workers)
//	... each worker w: b.Count(w, row) per edge ...     // concurrent
//	b.Finalize()                                        // one merge point
//	... each worker w: b.Place(w, row, col, val) ...    // concurrent
//	csr, _ := b.Build()
//
// Count and Place touch only worker w's private tally/cursor array and
// worker w's disjoint slots of the output, so any number of workers may call
// them concurrently as long as each worker index is used from one goroutine
// at a time. Duplicate (row, col) pairs are not combined; feed the builder
// duplicate-free streams (the Kronecker generator emits no duplicates) or
// dedupe downstream.
//
// Row tallies and cursors are int32: the builder rejects matrices with 2^31
// or more stored entries at Finalize, which keeps the W per-row tables at
// 8·rows bytes per worker — the O(W·n) band state of the engine, small next
// to the O(nnz) output for any graph with average degree above the worker
// count.
type CSRBuilder[T any] struct {
	numRows, numCols, workers int
	// tally[w][r] is worker w's pass-1 count of row-r edges. It survives
	// Finalize so Build can prove pass 2 replayed pass 1 exactly.
	tally [][]int32
	// cursor[w][r] is worker w's absolute next-write position for row r,
	// allocated by Finalize at the worker's band start within the row.
	cursor    [][]int32
	rowPtr    []int
	colIdx    []int
	val       []T
	finalized bool
}

// NewCSRBuilder prepares a builder for a rows×cols matrix fed by the given
// number of workers.
func NewCSRBuilder[T any](rows, cols, workers int) (*CSRBuilder[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if workers < 1 {
		return nil, fmt.Errorf("sparse: builder needs at least one worker, got %d", workers)
	}
	b := &CSRBuilder[T]{numRows: rows, numCols: cols, workers: workers,
		tally: make([][]int32, workers)}
	if err := parallel.Run(workers, func(w int) error {
		b.tally[w] = make([]int32, rows)
		return nil
	}); err != nil {
		return nil, err
	}
	return b, nil
}

// Count records, in pass 1, that worker w will place one entry in the given
// row. An out-of-range row panics; column bounds are checked at Build.
func (b *CSRBuilder[T]) Count(w, row int) { b.tally[w][row]++ }

// Finalize merges the pass-1 tallies: it computes the row-pointer array,
// turns each worker's tallies into absolute write cursors (worker bands are
// laid out in worker order within each row), and allocates the output
// storage. Call it exactly once, after every Count and before any Place.
func (b *CSRBuilder[T]) Finalize() error {
	if b.finalized {
		return fmt.Errorf("sparse: builder already finalized")
	}
	b.rowPtr = make([]int, b.numRows+1)
	bands, err := parallel.Partition(b.numRows, b.workers)
	if err != nil {
		return err
	}
	// Band totals first, so each merge goroutine knows where its rows start.
	bandTotal := make([]int64, b.workers)
	_ = parallel.Run(b.workers, func(k int) error {
		var total int64
		for r := bands[k].Lo; r < bands[k].Hi; r++ {
			for w := 0; w < b.workers; w++ {
				total += int64(b.tally[w][r])
			}
		}
		bandTotal[k] = total
		return nil
	})
	var nnz int64
	bandStart := make([]int64, b.workers)
	for k := 0; k < b.workers; k++ {
		bandStart[k] = nnz
		nnz += bandTotal[k]
	}
	if nnz >= math.MaxInt32 {
		return fmt.Errorf("sparse: %d stored entries exceed the builder's int32 cursor range", nnz)
	}
	// Lay out per-worker cursors at each band's start within each row and
	// fill the row pointers. The tallies stay untouched: Build compares
	// final cursor positions against them to prove the pass-2 replay
	// placed exactly what pass 1 counted, worker by worker, row by row.
	b.cursor = make([][]int32, b.workers)
	for w := range b.cursor {
		b.cursor[w] = make([]int32, b.numRows)
	}
	_ = parallel.Run(b.workers, func(k int) error {
		pos := bandStart[k]
		for r := bands[k].Lo; r < bands[k].Hi; r++ {
			b.rowPtr[r] = int(pos)
			for w := 0; w < b.workers; w++ {
				b.cursor[w][r] = int32(pos)
				pos += int64(b.tally[w][r])
			}
		}
		return nil
	})
	b.rowPtr[b.numRows] = int(nnz)
	b.colIdx = make([]int, nnz)
	b.val = make([]T, nnz)
	b.finalized = true
	return nil
}

// NNZ returns the total entry count after Finalize.
func (b *CSRBuilder[T]) NNZ() int {
	if !b.finalized {
		return 0
	}
	return b.rowPtr[b.numRows]
}

// Place writes, in pass 2, one entry into worker w's next slot for the given
// row. Workers must replay exactly the edges they counted, in any per-worker
// order; within a row the final entry order is worker-major, per-worker
// placement order.
func (b *CSRBuilder[T]) Place(w, row, col int, v T) {
	p := b.cursor[w][row]
	b.cursor[w][row] = p + 1
	b.colIdx[p] = col
	b.val[p] = v
}

// Build checks the assembled structure in parallel — every worker's cursor
// must have advanced by exactly its pass-1 tally in every row (proving the
// pass-2 replay matched pass 1 and no slot was skipped or overwritten), and
// column indices must be in bounds — then returns the CSR matrix. Rows
// whose entries did not arrive in ascending column order are sorted in
// place, so the result is always canonical CSR (short of duplicate
// combining); streams that honor the band-order guarantee (see gen) pay no
// sort at all.
func (b *CSRBuilder[T]) Build() (*CSR[T], error) {
	if !b.finalized {
		return nil, fmt.Errorf("sparse: Build before Finalize")
	}
	bands, err := parallel.Partition(b.numRows, b.workers)
	if err != nil {
		return nil, err
	}
	errs := make([]error, b.workers)
	_ = parallel.Run(b.workers, func(k int) error {
		for r := bands[k].Lo; r < bands[k].Hi; r++ {
			lo, hi := b.rowPtr[r], b.rowPtr[r+1]
			start := int32(lo)
			for w := 0; w < b.workers; w++ {
				end := start + b.tally[w][r]
				if b.cursor[w][r] != end {
					errs[k] = fmt.Errorf("sparse: worker %d placed %d entries in row %d, counted %d",
						w, b.cursor[w][r]-start, r, b.tally[w][r])
					return nil
				}
				start = end
			}
			sorted := true
			for p := lo; p < hi; p++ {
				if c := b.colIdx[p]; c < 0 || c >= b.numCols {
					errs[k] = fmt.Errorf("sparse: column %d out of bounds in row %d", c, r)
					return nil
				}
				if p > lo && b.colIdx[p-1] > b.colIdx[p] {
					sorted = false
				}
			}
			if !sorted {
				sort.Sort(&pairSorter[T]{cols: b.colIdx[lo:hi], vals: b.val[lo:hi]})
			}
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return &CSR[T]{NumRows: b.numRows, NumCols: b.numCols,
		RowPtr: b.rowPtr, ColIdx: b.colIdx, Val: b.val}, nil
}

// pairSorter sorts a row's column slice with its value slice in tandem. It
// is interface-based (not reflection-based sort.Slice) and only runs on rows
// that arrived out of order.
type pairSorter[T any] struct {
	cols []int
	vals []T
}

func (s *pairSorter[T]) Len() int           { return len(s.cols) }
func (s *pairSorter[T]) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *pairSorter[T]) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// DegreeHistogramCSR reduces a row-pointer array into the paper's n(d)
// histogram (structural row degree → row count, zero-degree rows skipped)
// with np parallel workers, each tallying a contiguous row band into a
// private map before a single merge.
func DegreeHistogramCSR(rowPtr []int, np int) (map[int64]int64, error) {
	n := len(rowPtr) - 1
	if n < 0 {
		return nil, fmt.Errorf("sparse: empty row-pointer array")
	}
	bands, err := parallel.Partition(n, np)
	if err != nil {
		return nil, err
	}
	locals := make([]map[int64]int64, np)
	_ = parallel.Run(np, func(k int) error {
		h := make(map[int64]int64)
		for r := bands[k].Lo; r < bands[k].Hi; r++ {
			if d := rowPtr[r+1] - rowPtr[r]; d > 0 {
				h[int64(d)]++
			}
		}
		locals[k] = h
		return nil
	})
	out := make(map[int64]int64)
	for _, h := range locals {
		for d, c := range h {
			out[d] += c
		}
	}
	return out, nil
}
