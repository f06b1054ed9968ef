package core

import (
	"fmt"
	"math/big"

	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

// Realize materializes the design's full adjacency matrix, removing the
// single self-loop of looped designs ("setting a single value back to zero",
// Section IV-B/C). Only feasible for designs whose dimensions and nonzero
// count fit in memory; extreme-scale designs must use the design-side
// property computations or the streaming generator instead.
func (d *Design) Realize() (*sparse.COO[int64], error) {
	sr := semiring.PlusTimesInt64()
	factors := make([]*sparse.COO[int64], len(d.factors))
	for i, f := range d.factors {
		factors[i] = f.Adjacency()
	}
	a, err := sparse.KronN(sr, factors...)
	if err != nil {
		return nil, err
	}
	if r, c, ok := d.LoopPosition(); ok {
		if removed := a.Remove(r, c); removed != 1 {
			return nil, fmt.Errorf("core: expected exactly one self-loop at (%d,%d), removed %d", r, c, removed)
		}
	}
	return a, nil
}

// LoopPosition returns the (row, col) of the product's single self-loop and
// whether one exists. With the hub at local index 0 the hub-of-hubs is global
// vertex 0; with leaf loops at local index m−1 the looped vertex is the last
// one, mA − 1.
func (d *Design) LoopPosition() (row, col int, ok bool) {
	switch d.loop {
	case star.LoopHub:
		return 0, 0, true
	case star.LoopLeaf:
		mA := d.NumVertices()
		if !mA.IsInt64() {
			// Realization is impossible at this scale anyway; report the
			// loop as present with a saturated position.
			return -1, -1, true
		}
		last := int(mA.Int64() - 1)
		return last, last, true
	default:
		return 0, 0, false
	}
}

// Split partitions the design into A = B ⊗ C with the first nb factors in B
// and the rest in C, the decomposition Section V's parallel generator uses.
func (d *Design) Split(nb int) (b, c *Design, err error) {
	if nb < 1 || nb >= len(d.factors) {
		return nil, nil, fmt.Errorf("core: split point %d outside [1, %d)", nb, len(d.factors))
	}
	b, err = NewDesign(d.factors[:nb])
	if err != nil {
		return nil, nil, err
	}
	c, err = NewDesign(d.factors[nb:])
	if err != nil {
		return nil, nil, err
	}
	return b, c, nil
}

// BalancedSplitPoint returns the smallest split index nb whose C-side suffix
// has at most maxCNNZ stored entries, so that C "fits in the memory of any
// one processor" while B carries as much parallelism (nnz(B) triples to
// distribute) as possible. It returns an error when even the last factor
// alone exceeds the bound. The generator and validator take nb; Split turns
// it into the two designs.
func (d *Design) BalancedSplitPoint(maxCNNZ int64) (int, error) {
	if len(d.factors) < 2 {
		return 0, fmt.Errorf("core: need at least two factors to split")
	}
	bound := big.NewInt(maxCNNZ)
	for nb := 1; nb < len(d.factors); nb++ {
		cd, err := NewDesign(d.factors[nb:])
		if err != nil {
			return 0, err
		}
		if cd.NNZWithLoops().Cmp(bound) <= 0 {
			return nb, nil
		}
	}
	return 0, fmt.Errorf("core: no suffix of factors fits within %d nonzeros", maxCNNZ)
}
