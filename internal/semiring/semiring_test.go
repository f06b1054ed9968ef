package semiring

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlusTimesInt64Laws(t *testing.T) {
	s := PlusTimesInt64()
	if v := s.CheckLaws([]int64{-3, -1, 0, 1, 2, 5, 17}); v != "" {
		t.Fatalf("plus-times int64 violates %s", v)
	}
}

func TestPlusTimesFloat64Laws(t *testing.T) {
	s := PlusTimesFloat64()
	// Restricted to integers-as-floats so associativity is exact.
	if v := s.CheckLaws([]float64{-2, 0, 1, 3, 8}); v != "" {
		t.Fatalf("plus-times float64 violates %s", v)
	}
}

func TestOrAndLaws(t *testing.T) {
	s := OrAnd()
	if v := s.CheckLaws([]bool{false, true}); v != "" {
		t.Fatalf("or-and violates %s", v)
	}
}

func TestMinPlusLaws(t *testing.T) {
	s := MinPlus()
	if v := s.CheckLaws([]float64{math.Inf(1), 0, 1, 2.5, 7}); v != "" {
		t.Fatalf("min-plus violates %s", v)
	}
}

func TestZeroIsAnnihilator(t *testing.T) {
	s := PlusTimesInt64()
	for _, v := range []int64{-100, -1, 0, 1, 42, 1 << 40} {
		if got := s.Mul(s.Zero, v); got != 0 {
			t.Errorf("0*%d = %d, want 0", v, got)
		}
		if got := s.Mul(v, s.Zero); got != 0 {
			t.Errorf("%d*0 = %d, want 0", v, got)
		}
	}
}

func TestIsZero(t *testing.T) {
	if s := PlusTimesInt64(); !s.IsZero(0) || s.IsZero(1) || s.IsZero(-1) {
		t.Error("plus-times int64 IsZero wrong")
	}
	if s := OrAnd(); !s.IsZero(false) || s.IsZero(true) {
		t.Error("or-and IsZero wrong")
	}
	if s := MinPlus(); !s.IsZero(math.Inf(1)) || s.IsZero(0) {
		t.Error("min-plus IsZero wrong")
	}
}

// Property: int64 plus-times distributivity holds for arbitrary values
// (modular overflow arithmetic still forms a commutative ring).
func TestQuickDistributivityInt64(t *testing.T) {
	s := PlusTimesInt64()
	f := func(a, b, c int64) bool {
		return s.Mul(a, s.Add(b, c)) == s.Add(s.Mul(a, b), s.Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: min-plus distributivity min(a+b, a+c) == a + min(b,c) holds for
// arbitrary finite floats.
func TestQuickDistributivityMinPlus(t *testing.T) {
	s := MinPlus()
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		return s.Mul(a, s.Add(b, c)) == s.Add(s.Mul(a, b), s.Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: boolean or-and semiring is idempotent: a⊕a = a and a⊗a = a.
func TestQuickOrAndIdempotent(t *testing.T) {
	s := OrAnd()
	f := func(a bool) bool { return s.Add(a, a) == a && s.Mul(a, a) == a }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{PlusTimesInt64().Name, "plus.times.int64"},
		{PlusTimesFloat64().Name, "plus.times.float64"},
		{OrAnd().Name, "lor.land.bool"},
		{MinPlus().Name, "min.plus.float64"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}
}

func TestCheckLawsDetectsViolation(t *testing.T) {
	bad := Semiring[int64]{
		Name:   "bad",
		Zero:   0,
		One:    1,
		Add:    func(a, b int64) int64 { return a + b },
		Mul:    func(a, b int64) int64 { return a + b + 1 }, // not a semiring
		Eq:     func(a, b int64) bool { return a == b },
		IsZero: func(a int64) bool { return a == 0 },
	}
	if v := bad.CheckLaws([]int64{0, 1, 2}); v == "" {
		t.Fatal("CheckLaws accepted a non-semiring")
	}
}
