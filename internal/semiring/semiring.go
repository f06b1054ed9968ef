// Package semiring provides GraphBLAS-style semiring abstractions.
//
// Section II of the paper defines the Kronecker product over any
// element-wise multiply ⊗ that "obeys the standard rules of element-wise
// multiplication, such as 0 being the multiplicative annihilator", and notes
// that when ⊗ and ⊕ form a semiring the Kronecker product keeps its algebraic
// properties (associativity, distributivity over ⊕, and the mixed-product
// rule with matrix multiply). This package supplies those (⊕, ⊗) pairs; the
// sparse substrate in internal/sparse is parameterized over them.
package semiring

import "math"

// Semiring bundles the additive monoid (Add, Zero) and multiplicative monoid
// (Mul, One) of a semiring over scalar type T. Zero must be the additive
// identity and the multiplicative annihilator; One the multiplicative
// identity. IsZero reports whether a value is the additive identity, which
// sparse code uses to drop explicit zeros.
type Semiring[T any] struct {
	// Name identifies the semiring in error messages and reports.
	Name string
	// Zero is the additive identity and multiplicative annihilator.
	Zero T
	// One is the multiplicative identity.
	One T
	// Add is the ⊕ operation; it must be associative and commutative.
	Add func(a, b T) T
	// Mul is the ⊗ operation; it must be associative and distribute over Add.
	Mul func(a, b T) T
	// Eq reports whether two scalars are equal.
	Eq func(a, b T) bool
	// IsZero reports whether a equals the additive identity.
	IsZero func(a T) bool
}

// Number is the constraint satisfied by the built-in numeric scalar types the
// arithmetic semirings operate on.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// PlusTimes returns the conventional (+, ×) arithmetic semiring over any
// numeric type. This is the semiring used for the paper's edge counting
// (nnz products), degree distribution combination, and triangle counting.
func PlusTimes[T Number](name string) Semiring[T] {
	return Semiring[T]{
		Name:   name,
		Zero:   0,
		One:    1,
		Add:    func(a, b T) T { return a + b },
		Mul:    func(a, b T) T { return a * b },
		Eq:     func(a, b T) bool { return a == b },
		IsZero: func(a T) bool { return a == 0 },
	}
}

// PlusTimesInt64 is the (+, ×) semiring over int64, the workhorse scalar for
// adjacency matrices whose entries are small non-negative counts.
func PlusTimesInt64() Semiring[int64] { return PlusTimes[int64]("plus.times.int64") }

// PlusTimesFloat64 is the (+, ×) semiring over float64.
func PlusTimesFloat64() Semiring[float64] { return PlusTimes[float64]("plus.times.float64") }

// OrAnd returns the Boolean (∨, ∧) semiring. Under it an adjacency matrix is
// a pure connectivity structure: Kronecker products and matrix multiplies
// compute reachability rather than counts.
func OrAnd() Semiring[bool] {
	return Semiring[bool]{
		Name:   "lor.land.bool",
		Zero:   false,
		One:    true,
		Add:    func(a, b bool) bool { return a || b },
		Mul:    func(a, b bool) bool { return a && b },
		Eq:     func(a, b bool) bool { return a == b },
		IsZero: func(a bool) bool { return !a },
	}
}

// MinPlus returns the tropical (min, +) semiring over float64 with +Inf as
// the additive identity. Matrix powers under it compute shortest paths.
func MinPlus() Semiring[float64] {
	inf := math.Inf(1)
	return Semiring[float64]{
		Name:   "min.plus.float64",
		Zero:   inf,
		One:    0,
		Add:    math.Min,
		Mul:    func(a, b float64) float64 { return a + b },
		Eq:     func(a, b float64) bool { return a == b },
		IsZero: func(a float64) bool { return math.IsInf(a, 1) },
	}
}

// CheckLaws exercises the semiring axioms on the supplied sample values and
// returns the first violated law's name, or "" when all hold. Test suites
// use it to property-check every semiring this package exports.
func (s Semiring[T]) CheckLaws(samples []T) string {
	for _, a := range samples {
		if !s.Eq(s.Add(a, s.Zero), a) {
			return "add-identity"
		}
		if !s.Eq(s.Mul(a, s.One), a) || !s.Eq(s.Mul(s.One, a), a) {
			return "mul-identity"
		}
		if !s.Eq(s.Mul(a, s.Zero), s.Zero) || !s.Eq(s.Mul(s.Zero, a), s.Zero) {
			return "annihilator"
		}
		for _, b := range samples {
			if !s.Eq(s.Add(a, b), s.Add(b, a)) {
				return "add-commutativity"
			}
			for _, c := range samples {
				if !s.Eq(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c))) {
					return "add-associativity"
				}
				if !s.Eq(s.Mul(s.Mul(a, b), c), s.Mul(a, s.Mul(b, c))) {
					return "mul-associativity"
				}
				if !s.Eq(s.Mul(a, s.Add(b, c)), s.Add(s.Mul(a, b), s.Mul(a, c))) {
					return "left-distributivity"
				}
				if !s.Eq(s.Mul(s.Add(a, b), c), s.Add(s.Mul(a, c), s.Mul(b, c))) {
					return "right-distributivity"
				}
			}
		}
	}
	return ""
}
