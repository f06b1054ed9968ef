package bigdeg

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func TestFromInt64MapAndEntries(t *testing.T) {
	d := FromInt64Map(map[int64]int64{5: 1, 1: 3, 2: 7})
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	es := d.Entries()
	if es[0].D.Int64() != 1 || es[1].D.Int64() != 2 || es[2].D.Int64() != 5 {
		t.Errorf("entries not sorted: %v", es)
	}
	if es[0].N.Int64() != 3 || es[1].N.Int64() != 7 || es[2].N.Int64() != 1 {
		t.Errorf("counts wrong: %v", es)
	}
	// Zero counts are skipped.
	z := FromInt64Map(map[int64]int64{3: 0})
	if z.Len() != 0 {
		t.Error("zero count stored")
	}
}

func TestEntriesAreCopies(t *testing.T) {
	d := FromInt64Map(map[int64]int64{1: 1})
	es := d.Entries()
	es[0].N.SetInt64(999)
	if d.CountAt(bi(1)).Int64() != 1 {
		t.Error("Entries exposed internal storage")
	}
}

func TestAddCountMergeAndRemove(t *testing.T) {
	d := New()
	d.AddCount(bi(4), bi(2))
	d.AddCount(bi(4), bi(3))
	if got := d.CountAt(bi(4)); got.Int64() != 5 {
		t.Fatalf("count = %s, want 5", got)
	}
	d.AddCount(bi(4), bi(-5))
	if d.Len() != 0 {
		t.Error("zeroed entry not removed")
	}
	d.AddCount(bi(7), big.NewInt(0)) // no-op
	if d.Len() != 0 {
		t.Error("zero delta created entry")
	}
}

// TestAddCountWidens adds a degree and then a count too wide for the
// table, then takes both away again: every value survives each re-layout,
// and the narrower and wider tables of one distribution compare equal.
func TestAddCountWidens(t *testing.T) {
	base := map[int64]int64{1: 5, 3: 2, 9: 1}
	d := FromInt64Map(base)
	huge := new(big.Int).Lsh(bi(3), 200)
	d.AddCount(huge, bi(7))
	wide := new(big.Int).Lsh(bi(1), 300)
	d.AddCount(bi(3), wide)
	want := map[string]string{"1": "5", "3": new(big.Int).Add(wide, bi(2)).String(), "9": "1", huge.String(): "7"}
	for _, e := range d.Entries() {
		if want[e.D.String()] != e.N.String() {
			t.Errorf("n(%s) = %s, want %s", e.D, e.N, want[e.D.String()])
		}
	}
	if d.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(want))
	}
	if Equal(d, FromInt64Map(base)) {
		t.Error("widened distribution equals the original")
	}
	d.AddCount(huge, bi(-7))
	d.AddCount(bi(3), new(big.Int).Neg(wide))
	if !Equal(d, FromInt64Map(base)) || !Equal(FromInt64Map(base), d) {
		t.Errorf("after removal got\n%swant\n%s", d.Table(), FromInt64Map(base).Table())
	}
	// Removal down to zero leaves an empty, still-usable table.
	for deg, n := range base {
		d.AddCount(bi(deg), bi(-n))
	}
	if d.Len() != 0 || !Equal(d, New()) {
		t.Fatalf("%d entries left after removing every count", d.Len())
	}
	d.AddCount(bi(4), bi(1))
	if d.CountAt(bi(4)).Int64() != 1 || d.Len() != 1 {
		t.Error("emptied table does not take a new entry")
	}
}

func TestAddCountPanicsOnNegative(t *testing.T) {
	d := New()
	d.AddCount(bi(3), bi(1))
	defer func() {
		if recover() == nil {
			t.Error("negative count did not panic")
		}
	}()
	d.AddCount(bi(3), bi(-2))
}

func TestAddCountPanicsOnAbsentRemoval(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Error("removal from absent degree did not panic")
		}
	}()
	d.AddCount(bi(3), bi(-1))
}

// Figure 1's distribution: star(5) ⊗ star(3) gives n(d) = 15/d.
func TestKronFig1(t *testing.T) {
	a := FromInt64Map(map[int64]int64{1: 5, 5: 1})
	b := FromInt64Map(map[int64]int64{1: 3, 3: 1})
	c := Kron(a, b)
	want := map[int64]int64{1: 15, 3: 5, 5: 3, 15: 1}
	if c.Len() != len(want) {
		t.Fatalf("support size %d, want %d", c.Len(), len(want))
	}
	for deg, n := range want {
		if got := c.CountAt(bi(deg)); got.Int64() != n {
			t.Errorf("n(%d) = %s, want %d", deg, got, n)
		}
	}
}

func TestKronMergesCollidingProducts(t *testing.T) {
	// 2·2 and 4·1 collide at degree 4.
	a := FromInt64Map(map[int64]int64{2: 1, 4: 1})
	b := FromInt64Map(map[int64]int64{1: 1, 2: 1})
	c := Kron(a, b)
	// Products: 2,4,4,8 → n(4) = 2.
	if got := c.CountAt(bi(4)); got.Int64() != 2 {
		t.Errorf("n(4) = %s, want 2 (merged)", got)
	}
	if c.Len() != 3 {
		t.Errorf("support %d, want 3", c.Len())
	}
}

func TestKronN(t *testing.T) {
	f := FromInt64Map(map[int64]int64{1: 3, 3: 1})
	d, err := KronN(f, f, f)
	if err != nil {
		t.Fatal(err)
	}
	// Counts: n(1)=27, n(3)=27, n(9)=9, n(27)=1; total 64 = 4³ vertices.
	if got := d.SumCounts(); got.Int64() != 64 {
		t.Errorf("total vertices %s, want 64", got)
	}
	if got := d.CountAt(bi(27)); got.Int64() != 1 {
		t.Errorf("n(27) = %s, want 1", got)
	}
	if got := d.CountAt(bi(3)); got.Int64() != 27 {
		t.Errorf("n(3) = %s, want 27", got)
	}
	if _, err := KronN(); err == nil {
		t.Error("empty KronN accepted")
	}
	// KronN must not mutate its first argument.
	if f.Len() != 2 || f.CountAt(bi(1)).Int64() != 3 {
		t.Error("KronN mutated its input")
	}
}

func TestSums(t *testing.T) {
	d := FromInt64Map(map[int64]int64{1: 5, 5: 1})
	if got := d.SumCounts(); got.Int64() != 6 {
		t.Errorf("SumCounts = %s, want 6", got)
	}
	if got := d.SumDegreeWeighted(); got.Int64() != 10 { // 1·5 + 5·1
		t.Errorf("SumDegreeWeighted = %s, want 10", got)
	}
	if got := d.MaxDegree(); got.Int64() != 5 {
		t.Errorf("MaxDegree = %s, want 5", got)
	}
	empty := New()
	if empty.MaxDegree() != nil {
		t.Error("empty distribution has a largest degree")
	}
}

func TestEqual(t *testing.T) {
	a := FromInt64Map(map[int64]int64{1: 2, 3: 1})
	b := FromInt64Map(map[int64]int64{3: 1, 1: 2})
	if !Equal(a, b) {
		t.Error("equal distributions reported unequal")
	}
	c := FromInt64Map(map[int64]int64{1: 2, 3: 2})
	if Equal(a, c) {
		t.Error("unequal counts reported equal")
	}
	d := FromInt64Map(map[int64]int64{1: 2})
	if Equal(a, d) {
		t.Error("different supports reported equal")
	}
	// The same values at different widths are equal: validation compares
	// a one-word measured table with a wider predicted one.
	wide := New()
	wide.AddCount(new(big.Int).Lsh(bi(1), 200), bi(1))
	wide.AddCount(bi(1), bi(2))
	wide.AddCount(bi(3), bi(1))
	wide.AddCount(new(big.Int).Lsh(bi(1), 200), bi(-1))
	if !Equal(a, wide) || !Equal(wide, a) {
		t.Error("equal values at different widths reported unequal")
	}
	if neg := FromInt64Map(map[int64]int64{-1: 2, 3: 1}); Equal(a, neg) || Equal(wide, neg) {
		t.Error("negative degree reported equal to its absolute value's")
	}
}

func TestAlphaStarIsOne(t *testing.T) {
	// A star's distribution has α = log(m̂)/log(m̂) = 1.
	d := FromInt64Map(map[int64]int64{1: 9, 9: 1})
	a, err := d.Alpha()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("alpha = %v, want 1", a)
	}
}

func TestAlphaErrors(t *testing.T) {
	if _, err := FromInt64Map(map[int64]int64{2: 5}).Alpha(); err == nil {
		t.Error("missing n(1) accepted")
	}
	if _, err := FromInt64Map(map[int64]int64{1: 5}).Alpha(); err == nil {
		t.Error("dmax = 1 accepted")
	}
}

func TestPowerLawDeviationExactLaw(t *testing.T) {
	// n(d) = 15/d exactly → deviation 0.
	d := FromInt64Map(map[int64]int64{1: 15, 3: 5, 5: 3, 15: 1})
	dev, err := d.PowerLawDeviation()
	if err != nil {
		t.Fatal(err)
	}
	if dev > 1e-9 {
		t.Errorf("deviation = %v, want ~0", dev)
	}
	// Perturbed distribution must deviate.
	p := FromInt64Map(map[int64]int64{1: 15, 3: 9, 5: 3, 15: 1})
	dev2, err := p.PowerLawDeviation()
	if err != nil {
		t.Fatal(err)
	}
	if dev2 < 0.1 {
		t.Errorf("perturbed deviation = %v, want noticeably positive", dev2)
	}
}

func TestBigLogAccuracy(t *testing.T) {
	// bigLog must agree with math.Log for values in float range.
	for _, v := range []int64{1, 2, 10, 1000, 1 << 40} {
		got := bigLog(bi(v))
		want := math.Log(float64(v))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("bigLog(%d) = %v, want %v", v, got, want)
		}
	}
	// And remain finite/sane for values beyond float64 range.
	huge := new(big.Int).Exp(bi(10), bi(400), nil)
	got := bigLog(huge)
	want := 400 * math.Log(10)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("bigLog(10^400) = %v, want %v", got, want)
	}
}

func TestLogBinned(t *testing.T) {
	d := FromInt64Map(map[int64]int64{1: 100, 2: 50, 3: 30, 10: 5, 100: 1})
	bins := d.LogBinned(10)
	// Bins: [1,10): 180, [10,100): 5, [100,1000): 1.
	if len(bins) != 3 {
		t.Fatalf("bins = %v, want 3", bins)
	}
	if bins[0].Exp != 0 || bins[0].Count.Int64() != 180 {
		t.Errorf("bin 0 = %+v", bins[0])
	}
	if bins[1].Exp != 1 || bins[1].Count.Int64() != 5 {
		t.Errorf("bin 1 = %+v", bins[1])
	}
	if bins[2].Exp != 2 || bins[2].Count.Int64() != 1 {
		t.Errorf("bin 2 = %+v", bins[2])
	}
	if got := d.LogBinned(1); got != nil {
		t.Error("base ≤ 1 accepted")
	}
}

func TestTableAndCSV(t *testing.T) {
	d := FromInt64Map(map[int64]int64{1: 3, 7: 1})
	tbl := d.Table()
	if !strings.Contains(tbl, "degree d") || !strings.Contains(tbl, "7") {
		t.Errorf("table missing content:\n%s", tbl)
	}
	csv := d.CSV()
	if !strings.HasPrefix(csv, "degree,count\n") || !strings.Contains(csv, "1,3\n") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

// Property: Kron preserves the two moment identities
// ΣN(c) = ΣN(a)·ΣN(b) and Σd·n(c) = Σd·n(a) · Σd·n(b).
func TestQuickKronMoments(t *testing.T) {
	f := func(degsA, degsB []uint8) bool {
		a, b := distFromBytes(degsA), distFromBytes(degsB)
		if a.Len() == 0 || b.Len() == 0 {
			return true
		}
		c := Kron(a, b)
		wantCounts := new(big.Int).Mul(a.SumCounts(), b.SumCounts())
		wantWeighted := new(big.Int).Mul(a.SumDegreeWeighted(), b.SumDegreeWeighted())
		return c.SumCounts().Cmp(wantCounts) == 0 &&
			c.SumDegreeWeighted().Cmp(wantWeighted) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// rawMoment returns Σ dᵏ·n(d).
func rawMoment(d *Dist, k int) *big.Int {
	acc := new(big.Int)
	for _, e := range d.Entries() {
		t := new(big.Int).Exp(e.D, big.NewInt(int64(k)), nil)
		acc.Add(acc, t.Mul(t, e.N))
	}
	return acc
}

// Property: because degrees multiply, Kron multiplies every raw moment,
// Σdᵏn(a⊗b) = Σdᵏn(a)·Σdᵏn(b). Orders 2 and 3 also catch counts moved
// between degrees in ways that keep the two sums above.
func TestQuickMomentsMultiplicative(t *testing.T) {
	f := func(degsA, degsB []uint8, kRaw uint8) bool {
		a, b := distFromBytes(degsA), distFromBytes(degsB)
		if a.Len() == 0 || b.Len() == 0 {
			return true
		}
		k := int(kRaw % 4)
		return rawMoment(Kron(a, b), k).Cmp(new(big.Int).Mul(rawMoment(a, k), rawMoment(b, k))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Kron is commutative.
func TestQuickKronCommutative(t *testing.T) {
	f := func(degsA, degsB []uint8) bool {
		a, b := distFromBytes(degsA), distFromBytes(degsB)
		if a.Len() == 0 || b.Len() == 0 {
			return true
		}
		return Equal(Kron(a, b), Kron(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func distFromBytes(bs []uint8) *Dist {
	d := New()
	for _, b := range bs {
		deg := int64(b%16) + 1
		d.AddCount(bi(deg), bi(int64(b/16)+1))
	}
	return d
}

// TestNegativeDegreeSurvivesWidening keeps a negative degree, which only
// AddCount can store, through a re-layout: it still sorts first, reads back
// as itself and weighs in negatively.
func TestNegativeDegreeSurvivesWidening(t *testing.T) {
	d := FromInt64Map(map[int64]int64{-4: 2, 3: 1})
	d.AddCount(new(big.Int).Lsh(bi(1), 200), bi(1))
	d.AddCount(bi(-1), bi(1))
	if got := d.CountAt(bi(-4)); got.Int64() != 2 {
		t.Errorf("n(-4) = %s, want 2", got)
	}
	es := d.Entries()
	if es[0].D.Int64() != -4 || es[1].D.Int64() != -1 || es[2].D.Int64() != 3 {
		t.Errorf("entries out of order: %v", es)
	}
	want := new(big.Int).Lsh(bi(1), 200)
	want.Add(want, bi(-8-1+3))
	if got := d.SumDegreeWeighted(); got.Cmp(want) != 0 {
		t.Errorf("SumDegreeWeighted = %s, want %s", got, want)
	}
}
