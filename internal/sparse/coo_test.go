package sparse

import (
	"strings"
	"testing"

	"repro/internal/semiring"
)

var srI = semiring.PlusTimesInt64()

func tri(r, c int, v int64) Triple[int64] { return Triple[int64]{Row: r, Col: c, Val: v} }

func TestNewCOOBounds(t *testing.T) {
	if _, err := NewCOO(2, 2, []Triple[int64]{tri(2, 0, 1)}); err == nil {
		t.Error("row out of bounds accepted")
	}
	if _, err := NewCOO(2, 2, []Triple[int64]{tri(0, 2, 1)}); err == nil {
		t.Error("col out of bounds accepted")
	}
	if _, err := NewCOO(2, 2, []Triple[int64]{tri(-1, 0, 1)}); err == nil {
		t.Error("negative row accepted")
	}
	if _, err := NewCOO[int64](-1, 2, nil); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, err := NewCOO(2, 2, []Triple[int64]{tri(1, 1, 5)}); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
}

func TestMustCOOPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCOO did not panic on invalid input")
		}
	}()
	MustCOO(1, 1, []Triple[int64]{tri(5, 5, 1)})
}

func TestDedupe(t *testing.T) {
	m := MustCOO(3, 3, []Triple[int64]{
		tri(1, 1, 2), tri(0, 0, 1), tri(1, 1, 3), tri(2, 0, 0), tri(0, 2, 7),
	})
	d := m.Dedupe(srI)
	want := []Triple[int64]{tri(0, 0, 1), tri(0, 2, 7), tri(1, 1, 5)}
	if len(d.Tr) != len(want) {
		t.Fatalf("dedupe kept %d triples, want %d: %v", len(d.Tr), len(want), d.Tr)
	}
	for i, w := range want {
		if d.Tr[i] != w {
			t.Errorf("triple %d = %v, want %v", i, d.Tr[i], w)
		}
	}
	// Original untouched.
	if len(m.Tr) != 5 {
		t.Error("Dedupe mutated its input")
	}
}

func TestDedupeCancellation(t *testing.T) {
	m := MustCOO(2, 2, []Triple[int64]{tri(0, 0, 5), tri(0, 0, -5)})
	if d := m.Dedupe(srI); len(d.Tr) != 0 {
		t.Errorf("cancelled entry survived: %v", d.Tr)
	}
}

func TestTranspose(t *testing.T) {
	m := MustCOO(2, 3, []Triple[int64]{tri(0, 2, 4), tri(1, 0, 5)})
	mt := m.Transpose()
	if mt.NumRows != 3 || mt.NumCols != 2 {
		t.Fatalf("transpose dims %dx%d, want 3x2", mt.NumRows, mt.NumCols)
	}
	if mt.At(2, 0, srI) != 4 || mt.At(0, 1, srI) != 5 {
		t.Error("transpose values wrong")
	}
	// (Aᵀ)ᵀ == A
	if !Equal(m, mt.Transpose(), srI) {
		t.Error("double transpose is not identity")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := MustCOO(2, 2, []Triple[int64]{tri(0, 1, 3), tri(1, 0, 3), tri(0, 0, 1)})
	if !sym.IsSymmetric(srI) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := MustCOO(2, 2, []Triple[int64]{tri(0, 1, 3)})
	if asym.IsSymmetric(srI) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestAtSumsDuplicates(t *testing.T) {
	m := MustCOO(2, 2, []Triple[int64]{tri(1, 0, 2), tri(1, 0, 3)})
	if got := m.At(1, 0, srI); got != 5 {
		t.Errorf("At(1,0) = %d, want 5", got)
	}
	if got := m.At(0, 1, srI); got != 0 {
		t.Errorf("At(0,1) = %d, want 0", got)
	}
}

func TestRemove(t *testing.T) {
	m := MustCOO(3, 3, []Triple[int64]{tri(1, 2, 9), tri(1, 2, 1)})
	if got := m.Remove(1, 2); got != 2 {
		t.Errorf("Remove removed %d, want 2", got)
	}
	if m.NNZ() != 0 {
		t.Error("matrix not empty after Remove")
	}
	if got := m.Remove(0, 0); got != 0 {
		t.Errorf("Remove on absent entry removed %d, want 0", got)
	}
}

func TestEqual(t *testing.T) {
	a := MustCOO(2, 2, []Triple[int64]{tri(0, 0, 1), tri(1, 1, 2)})
	b := MustCOO(2, 2, []Triple[int64]{tri(1, 1, 2), tri(0, 0, 1)})
	if !Equal(a, b, srI) {
		t.Error("order-insensitive equality failed")
	}
	c := MustCOO(2, 2, []Triple[int64]{tri(0, 0, 1), tri(1, 1, 3)})
	if Equal(a, c, srI) {
		t.Error("unequal values reported equal")
	}
	d := MustCOO(3, 2, []Triple[int64]{tri(0, 0, 1), tri(1, 1, 2)})
	if Equal(a, d, srI) {
		t.Error("unequal dims reported equal")
	}
	// Duplicates that sum to the same canonical matrix are equal.
	e := MustCOO(2, 2, []Triple[int64]{tri(0, 0, 1), tri(1, 1, 1), tri(1, 1, 1)})
	if !Equal(a, e, srI) {
		t.Error("duplicate-summed matrix not equal to canonical")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4, srI)
	if id.NNZ() != 4 {
		t.Fatalf("identity nnz %d, want 4", id.NNZ())
	}
	m := MustCOO(4, 4, []Triple[int64]{tri(0, 3, 7), tri(2, 1, 4)})
	prod, err := MxM(m.ToCSR(srI), id.ToCSR(srI), srI)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(prod.ToCOO(), m.Dedupe(srI), srI) {
		t.Error("A·I != A")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	m := MustCOO(2, 3, []Triple[int64]{tri(0, 1, 2), tri(1, 2, -4)})
	d := m.Dense(srI)
	if d[0][1] != 2 || d[1][2] != -4 || d[0][0] != 0 {
		t.Fatalf("dense wrong: %v", d)
	}
	back := FromDense(d, srI)
	if !Equal(m, back, srI) {
		t.Error("FromDense(Dense(m)) != m")
	}
}

func TestFromDenseEmpty(t *testing.T) {
	m := FromDense(nil, srI)
	if m.NumRows != 0 || m.NumCols != 0 || m.NNZ() != 0 {
		t.Error("empty dense conversion wrong")
	}
}

func TestStringTruncates(t *testing.T) {
	tr := make([]Triple[int64], 20)
	for i := range tr {
		tr[i] = tri(i, i, 1)
	}
	m := MustCOO(20, 20, tr)
	s := m.String()
	if !strings.Contains(s, "nnz=20") || !strings.Contains(s, "...") {
		t.Errorf("String() = %q, want nnz=20 and truncation marker", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustCOO(2, 2, []Triple[int64]{tri(0, 0, 1)})
	c := m.Clone()
	c.Tr[0].Val = 99
	if m.Tr[0].Val != 1 {
		t.Error("Clone shares storage with original")
	}
}
