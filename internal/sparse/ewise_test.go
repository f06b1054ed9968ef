package sparse

import (
	"testing"
)

func TestEWiseMultDimMismatch(t *testing.T) {
	a := FromDense([][]int64{{1}}, srI)
	b := FromDense([][]int64{{1, 2}}, srI)
	if _, err := EWiseMult(a, b, srI); err == nil {
		t.Error("dimension mismatch accepted by EWiseMult")
	}
}

func TestEWiseMultIntersection(t *testing.T) {
	a := FromDense([][]int64{{2, 3, 0}, {0, 4, 5}}, srI)
	b := FromDense([][]int64{{7, 0, 1}, {0, 2, 0}}, srI)
	c, err := EWiseMult(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	want := FromDense([][]int64{{14, 0, 0}, {0, 8, 0}}, srI)
	if !Equal(c, want, srI) {
		t.Fatalf("EWiseMult = %v, want %v", c, want)
	}
	// Intersection nnz never exceeds either input.
	if c.NNZ() > a.Dedupe(srI).NNZ() || c.NNZ() > b.Dedupe(srI).NNZ() {
		t.Error("intersection larger than an operand")
	}
}

func TestEWiseMultWithDuplicates(t *testing.T) {
	// Duplicates must be combined before intersecting.
	a := MustCOO(1, 1, []Triple[int64]{tri(0, 0, 1), tri(0, 0, 1)})
	b := MustCOO(1, 1, []Triple[int64]{tri(0, 0, 3)})
	c, err := EWiseMult(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0, 0, srI); got != 6 {
		t.Errorf("EWiseMult with duplicates = %d, want 6", got)
	}
}
