package sparse

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/semiring"
)

func TestKronSmallDense(t *testing.T) {
	// A = [1 2; 0 3], B = [0 1; 1 0]; verify C = A ⊗ B element by element.
	a := FromDense([][]int64{{1, 2}, {0, 3}}, srI)
	b := FromDense([][]int64{{0, 1}, {1, 0}}, srI)
	c, err := Kron(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	want := FromDense([][]int64{
		{0, 1, 0, 2},
		{1, 0, 2, 0},
		{0, 0, 0, 3},
		{0, 0, 3, 0},
	}, srI)
	if !Equal(c, want, srI) {
		t.Fatalf("Kron result wrong:\n got %v\nwant %v", c, want)
	}
}

func TestKronNNZProduct(t *testing.T) {
	a := FromDense([][]int64{{1, 1, 0}, {0, 1, 0}, {1, 0, 1}}, srI)
	b := FromDense([][]int64{{1, 0}, {1, 1}}, srI)
	c, err := Kron(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.NNZ(), a.NNZ()*b.NNZ(); got != want {
		t.Errorf("nnz(A⊗B) = %d, want nnz(A)*nnz(B) = %d", got, want)
	}
	if c.NumRows != 6 || c.NumCols != 6 {
		t.Errorf("dims %dx%d, want 6x6", c.NumRows, c.NumCols)
	}
}

func TestKronAssociativity(t *testing.T) {
	a := FromDense([][]int64{{1, 2}, {3, 0}}, srI)
	b := FromDense([][]int64{{0, 1}, {1, 1}}, srI)
	c := FromDense([][]int64{{2, 0}, {0, 5}}, srI)
	ab, err := Kron(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	left, err := Kron(ab, c, srI)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Kron(b, c, srI)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Kron(a, bc, srI)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(left, right, srI) {
		t.Error("(A⊗B)⊗C != A⊗(B⊗C)")
	}
}

// plus returns A ⊕ B as one COO holding both operands' triples: a COO's
// duplicate entries accumulate under ⊕.
func plus(a, b *COO[int64]) *COO[int64] {
	return MustCOO(a.NumRows, a.NumCols, append(append([]Triple[int64]{}, a.Tr...), b.Tr...))
}

func TestKronDistributesOverAdd(t *testing.T) {
	a := FromDense([][]int64{{1, 0}, {2, 3}}, srI)
	b := FromDense([][]int64{{0, 1}, {4, 0}}, srI)
	c := FromDense([][]int64{{5, 0}, {0, 6}}, srI)
	left, err := Kron(a, plus(b, c), srI)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := Kron(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := Kron(a, c, srI)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(left, plus(ab, ac), srI) {
		t.Error("A⊗(B⊕C) != (A⊗B)⊕(A⊗C)")
	}
}

// The mixed-product property from Section II:
// (A⊗B)(C⊗D) = (AC)⊗(BD).
func TestKronMixedProduct(t *testing.T) {
	a := FromDense([][]int64{{1, 2}, {0, 1}}, srI)
	b := FromDense([][]int64{{1, 1}, {1, 0}}, srI)
	c := FromDense([][]int64{{0, 3}, {1, 0}}, srI)
	d := FromDense([][]int64{{2, 0}, {0, 2}}, srI)

	ab, err := Kron(a, b, srI)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Kron(c, d, srI)
	if err != nil {
		t.Fatal(err)
	}
	left, err := MxM(ab.ToCSR(srI), cd.ToCSR(srI), srI)
	if err != nil {
		t.Fatal(err)
	}

	ac, err := MxM(a.ToCSR(srI), c.ToCSR(srI), srI)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := MxM(b.ToCSR(srI), d.ToCSR(srI), srI)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Kron(ac.ToCOO(), bd.ToCOO(), srI)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(left.ToCOO(), right, srI) {
		t.Error("(A⊗B)(C⊗D) != (AC)⊗(BD)")
	}
}

func TestKronBooleanSemiring(t *testing.T) {
	sb := semiring.OrAnd()
	a := FromDense([][]bool{{true, false}, {true, true}}, sb)
	b := FromDense([][]bool{{false, true}, {true, false}}, sb)
	c, err := Kron(a, b, sb)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != a.NNZ()*b.NNZ() {
		t.Error("boolean Kron nnz product violated")
	}
	if !c.At(0, 1, sb) {
		t.Error("C(0,1) should be true")
	}
}

func TestKronNFold(t *testing.T) {
	f := FromDense([][]int64{{1, 1}, {1, 0}}, srI)
	c3, err := KronN(srI, f, f, f)
	if err != nil {
		t.Fatal(err)
	}
	if c3.NumRows != 8 || c3.NNZ() != 27 {
		t.Errorf("3-fold Kron dims/nnz = %d/%d, want 8/27", c3.NumRows, c3.NNZ())
	}
	// Single factor returns a copy.
	c1, err := KronN(srI, f)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c1, f, srI) {
		t.Error("1-fold Kron != factor")
	}
	if _, err := KronN(srI); err == nil {
		t.Error("0-fold Kron accepted")
	}
}

func TestKronOverflowGuard(t *testing.T) {
	huge := &COO[int64]{NumRows: 1 << 32, NumCols: 1 << 32}
	if _, err := Kron(huge, huge, srI); err == nil {
		t.Error("dimension overflow not caught")
	}
}

func TestKronIdentityIsIdentity(t *testing.T) {
	m := FromDense([][]int64{{1, 2}, {3, 4}}, srI)
	one := Identity(1, srI)
	left, err := Kron(one, m, srI)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(left, m, srI) {
		t.Error("I1 ⊗ M != M")
	}
	right, err := Kron(m, one, srI)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(right, m, srI) {
		t.Error("M ⊗ I1 != M")
	}
}

// randomFactor is a random rows×cols matrix with distinct positions and
// nonzero values, its triples shuffled: canonical content in arbitrary
// storage order.
func randomFactor(rng *rand.Rand, rows, cols int) *COO[int64] {
	var tr []Triple[int64]
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(100) < 45 {
				v := int64(1 + rng.Intn(4))
				if rng.Intn(2) == 0 {
					v = -v
				}
				tr = append(tr, tri(i, j, v))
			}
		}
	}
	rng.Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })
	return MustCOO(rows, cols, tr)
}

// KronOrdered must enumerate exactly KronN's entries, in row-major or
// column-major order, for rectangular factors with empty rows and columns
// and non-unit values.
func TestKronOrderedMatchesSortedKronN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	byRow := func(a, b Triple[int64]) int { return cmp.Or(a.Row-b.Row, a.Col-b.Col) }
	byCol := func(a, b Triple[int64]) int { return cmp.Or(a.Col-b.Col, a.Row-b.Row) }
	for trial := 0; trial < 200; trial++ {
		factors := make([]*COO[int64], 1+rng.Intn(4))
		for i := range factors {
			factors[i] = randomFactor(rng, 1+rng.Intn(4), 1+rng.Intn(4))
		}
		want, err := KronN(srI, factors...)
		if err != nil {
			t.Fatal(err)
		}
		for _, colMajor := range []bool{false, true} {
			var got []Triple[int64]
			rows, cols, err := KronOrdered(srI, colMajor, factors, func(r, c int, v int64) {
				got = append(got, tri(r, c, v))
			})
			if err != nil {
				t.Fatal(err)
			}
			if rows != want.NumRows || cols != want.NumCols {
				t.Fatalf("trial %d: dims %dx%d, want %dx%d", trial, rows, cols, want.NumRows, want.NumCols)
			}
			sorted := slices.Clone(want.Tr)
			if colMajor {
				slices.SortFunc(sorted, byCol)
			} else {
				slices.SortFunc(sorted, byRow)
			}
			if !slices.Equal(got, sorted) {
				t.Fatalf("trial %d colMajor=%v: ordered product differs from sorted KronN", trial, colMajor)
			}
		}
	}
	if _, _, err := KronOrdered(srI, false, nil, func(int, int, int64) {}); err == nil {
		t.Error("0-fold KronOrdered accepted")
	}
}

// An oversized product fails MulDim's check before anything is converted or
// enumerated.
func TestKronOrderedOverflowGuard(t *testing.T) {
	huge := &COO[int64]{NumRows: 1 << 32, NumCols: 1 << 32}
	_, _, err := KronOrdered(srI, true, []*COO[int64]{huge, huge}, func(int, int, int64) {
		t.Fatal("oversized product enumerated an entry")
	})
	if err == nil || !strings.Contains(err.Error(), "overflows int") {
		t.Fatalf("err = %v, want the MulDim overflow error", err)
	}
}
