package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCOO builds a small random int64 matrix from a seed, used by the
// property tests below. Dimensions are 1..6 and density ~40%.
func randomCOO(seed int64, rows, cols int) *COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var tr []Triple[int64]
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(100) < 40 {
				tr = append(tr, tri(i, j, int64(rng.Intn(9)-4)))
			}
		}
	}
	return MustCOO(rows, cols, tr)
}

func dims(seed int64) (int, int) {
	rng := rand.New(rand.NewSource(seed))
	return 1 + rng.Intn(6), 1 + rng.Intn(6)
}

// Property: transpose is an involution on arbitrary random matrices.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r, c := dims(seed)
		m := randomCOO(seed, r, c)
		return Equal(m, m.Transpose().Transpose(), srI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for arbitrary compatible random matrices.
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randomCOO(seed+1, m, k)
		b := randomCOO(seed+2, k, n)
		ab, err := MxM(a.ToCSR(srI), b.ToCSR(srI), srI)
		if err != nil {
			return false
		}
		btat, err := MxM(b.Transpose().ToCSR(srI), a.Transpose().ToCSR(srI), srI)
		if err != nil {
			return false
		}
		return Equal(ab.ToCOO().Transpose(), btat.ToCOO(), srI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Kronecker nnz multiplicativity for canonical matrices whose
// values avoid zero products (all values nonzero ⇒ products nonzero over ℤ).
func TestQuickKronNNZ(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNonzeroCOO(seed+10, 1+rng.Intn(5), 1+rng.Intn(5))
		b := randomNonzeroCOO(seed+20, 1+rng.Intn(5), 1+rng.Intn(5))
		c, err := Kron(a, b, srI)
		if err != nil {
			return false
		}
		return c.Dedupe(srI).NNZ() == a.NNZ()*b.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomNonzeroCOO(seed int64, rows, cols int) *COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var tr []Triple[int64]
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(100) < 40 {
				v := int64(1 + rng.Intn(4))
				tr = append(tr, tri(i, j, v))
			}
		}
	}
	return MustCOO(rows, cols, tr)
}

// Property: Kron(A,B) transpose equals Kron(Aᵀ,Bᵀ).
func TestQuickKronTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCOO(seed+3, 1+rng.Intn(4), 1+rng.Intn(4))
		b := randomCOO(seed+4, 1+rng.Intn(4), 1+rng.Intn(4))
		ab, err := Kron(a, b, srI)
		if err != nil {
			return false
		}
		atbt, err := Kron(a.Transpose(), b.Transpose(), srI)
		if err != nil {
			return false
		}
		return Equal(ab.Transpose(), atbt, srI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: EWiseMult distributes over ⊕ at stored positions, mirroring the
// semiring laws lifted to matrices.
func TestQuickEWiseLaws(t *testing.T) {
	f := func(seed int64) bool {
		r, c := dims(seed)
		a := randomCOO(seed+5, r, c)
		b := randomCOO(seed+6, r, c)
		cc := randomCOO(seed+7, r, c)

		left, err := EWiseMult(a, plus(b, cc), srI)
		if err != nil {
			return false
		}
		abM, err := EWiseMult(a, b, srI)
		if err != nil {
			return false
		}
		acM, err := EWiseMult(a, cc, srI)
		if err != nil {
			return false
		}
		return Equal(left, plus(abM, acM), srI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: MxM associativity on random triples of compatible matrices.
func TestQuickMxMAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, l, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := randomCOO(seed+8, m, k).ToCSR(srI)
		b := randomCOO(seed+9, k, l).ToCSR(srI)
		c := randomCOO(seed+10, l, n).ToCSR(srI)
		ab, err := MxM(a, b, srI)
		if err != nil {
			return false
		}
		abc1, err := MxM(ab, c, srI)
		if err != nil {
			return false
		}
		bc, err := MxM(b, c, srI)
		if err != nil {
			return false
		}
		abc2, err := MxM(a, bc, srI)
		if err != nil {
			return false
		}
		return Equal(abc1.ToCOO(), abc2.ToCOO(), srI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: CSR round trip through COO preserves the matrix, and Validate
// always passes on constructed matrices.
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r, c := dims(seed)
		m := randomCOO(seed+11, r, c)
		csr := m.ToCSR(srI)
		if csr.Validate() != nil {
			return false
		}
		return Equal(m, csr.ToCOO(), srI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
