package bigdeg

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/star"
)

// oracle is a distribution as a map keyed by degree: the definition of the
// Kronecker product distribution, with no order to get wrong.
type oracle map[string]Entry

func oracleOf(d *Dist) oracle {
	o := oracle{}
	for _, e := range d.Entries() {
		o[e.D.String()] = e
	}
	return o
}

// kron multiplies every support pair of o and b and sums the counts of
// products that share a degree.
func (o oracle) kron(b *Dist) oracle {
	out := oracle{}
	for _, ea := range o {
		for _, eb := range b.Entries() {
			deg := new(big.Int).Mul(ea.D, eb.D)
			cnt := new(big.Int).Mul(ea.N, eb.N)
			k := deg.String()
			if prev, ok := out[k]; ok {
				cnt.Add(cnt, prev.N)
			}
			out[k] = Entry{D: deg, N: cnt}
		}
	}
	return out
}

// checkOracle asserts that got's degrees strictly increase, that every
// count is positive, and that got holds exactly want's pairs.
func checkOracle(t *testing.T, name string, got *Dist, want oracle) {
	t.Helper()
	es := got.Entries()
	for i, e := range es {
		if i > 0 && es[i-1].D.Cmp(e.D) >= 0 {
			t.Fatalf("%s: degrees not strictly increasing at %d: %s then %s", name, i, es[i-1].D, e.D)
		}
		if e.N.Sign() <= 0 {
			t.Fatalf("%s: n(%s) = %s, want positive", name, e.D, e.N)
		}
		if w, ok := want[e.D.String()]; !ok || w.N.Cmp(e.N) != 0 {
			t.Fatalf("%s: n(%s) = %s, oracle has %v", name, e.D, e.N, w.N)
		}
	}
	if got.Len() != len(want) {
		t.Fatalf("%s: %d distinct degrees, oracle has %d", name, got.Len(), len(want))
	}
}

// randBig returns a uniform value below 2^bits.
func randBig(rng *rand.Rand, bits int) *big.Int {
	return new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
}

// randDist draws a distribution of n entries, before merging. Degrees are
// either wide (up to 200 bits, one in eight zero) or products of a few
// prime powers scaled past 2^64 or 2^128, so that products collide. Counts
// run to 200 bits, and one in four sits just below a word boundary, so
// that colliding sums carry into a new top word. Entries arrive in random
// order, so the table widens as wider values come.
func randDist(rng *rand.Rand, n int, collide bool) *Dist {
	d := New()
	for range n {
		var deg *big.Int
		switch {
		case collide:
			deg = big.NewInt(1)
			for _, p := range []int64{2, 3, 5} {
				deg.Mul(deg, new(big.Int).Exp(big.NewInt(p), big.NewInt(rng.Int63n(4)), nil))
			}
			deg.Lsh(deg, uint(64*rng.Intn(3)))
		case rng.Intn(8) == 0:
			deg = new(big.Int)
		default:
			deg = randBig(rng, 1+rng.Intn(200))
		}
		cnt := new(big.Int).Add(randBig(rng, 1+rng.Intn(200)), big.NewInt(1))
		if rng.Intn(4) == 0 {
			cnt.Lsh(big.NewInt(1), uint(64*(1+rng.Intn(3))))
			cnt.Sub(cnt, big.NewInt(1+rng.Int63n(1000)))
		}
		d.AddCount(deg, cnt)
	}
	return d
}

// TestKronMatchesOracle compares Kron, in both argument orders, against the
// map oracle on supports of 0 to 64 entries per side.
func TestKronMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 5, 17, 64}
	for _, collide := range []bool{false, true} {
		for _, na := range sizes {
			for _, nb := range sizes {
				for rep := range 3 {
					a, b := randDist(rng, na, collide), randDist(rng, nb, collide)
					sa, sb := a.clone(), b.clone()
					want := oracleOf(a).kron(b)
					name := fmt.Sprintf("collide=%v |a|=%d |b|=%d rep %d", collide, a.Len(), b.Len(), rep)
					ab, ba := Kron(a, b), Kron(b, a)
					checkOracle(t, name+" a⊗b", ab, want)
					checkOracle(t, name+" b⊗a", ba, want)
					// The product owns its storage: changing it leaves the
					// operands as they were.
					for _, e := range ab.Entries() {
						ab.AddCount(e.D, big.NewInt(1))
					}
					if !Equal(a, sa) || !Equal(b, sb) {
						t.Fatalf("%s: Kron's result shares storage with an operand", name)
					}
				}
			}
		}
	}
}

// TestKronNMatchesOracle folds 1 to 15 random star factors, in every loop
// mode, through KronN and through the oracle.
func TestKronNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	modes := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for k := 1; k <= 15; k++ {
		for rep := range 3 {
			factors := make([]*Dist, k)
			var pts []int
			for i := range factors {
				s := star.Spec{Points: 2 + rng.Intn(30), Loop: modes[rng.Intn(len(modes))]}
				factors[i] = FromInt64Map(s.DegreeDistribution())
				pts = append(pts, s.Points)
			}
			want := oracleOf(factors[0])
			for _, f := range factors[1:] {
				want = want.kron(f)
			}
			got, err := KronN(factors...)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, fmt.Sprintf("k=%d rep %d m̂=%v", k, rep, pts), got, want)
		}
	}
}

func TestKronPanicsOnNegativeDegree(t *testing.T) {
	neg := New()
	neg.AddCount(big.NewInt(-2), big.NewInt(1))
	defer func() {
		if recover() == nil {
			t.Error("negative degree did not panic")
		}
	}()
	Kron(FromInt64Map(map[int64]int64{1: 1}), neg)
}
