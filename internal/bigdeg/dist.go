// Package bigdeg implements exact, arbitrary-precision degree distributions.
//
// Section IV of the paper computes the degree distribution of a Kronecker
// graph as the Kronecker product of the factor distributions,
// nA(d) = ⊗ₖ nAₖ(d); for the 10³⁰-edge designs both the degrees and the
// counts exceed uint64. A distribution is one table of fixed-width words,
// so Kron multiplies and merges without allocating per entry; math/big
// appears only where values enter or leave the table.
package bigdeg

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"
)

// Entry is one support point of a distribution: N vertices have degree D.
type Entry struct {
	D *big.Int
	N *big.Int
}

// Dist is an exact degree distribution: a set of (degree, count) pairs with
// positive counts, kept sorted by increasing degree.
//
// The pairs sit in one table of words. Every value takes w words (see
// words.go), entry i's degree at words[2wi:] and its count in the w words
// after it, and w holds every value with its sign bit; AddCount re-lays the
// table out wider when a value needs it. The table holds no pointer, so the
// garbage collector never scans it.
type Dist struct {
	w     int
	words []big.Word
}

// New returns an empty distribution.
func New() *Dist { return &Dist{} }

// FromInt64Map builds a distribution from small (per-factor) degree counts,
// skipping zero counts. It panics on a negative count, as AddCount does.
func FromInt64Map(m map[int64]int64) *Dist {
	degs := make([]int64, 0, len(m))
	for deg, n := range m {
		if n < 0 {
			panic(fmt.Sprintf("bigdeg: removing from absent degree %d", deg))
		}
		if n > 0 {
			degs = append(degs, deg)
		}
	}
	slices.Sort(degs)
	// Every int64 fits this width, sign included.
	d := &Dist{w: 64 / wordBits}
	d.words = make([]big.Word, 2*d.w*len(degs))
	for i, deg := range degs {
		putInt64(d.deg(i), deg)
		putInt64(d.cnt(i), m[deg])
	}
	return d
}

// Len returns the number of distinct degrees.
func (d *Dist) Len() int {
	if d.w == 0 {
		return 0
	}
	return len(d.words) / (2 * d.w)
}

// deg and cnt return entry i's degree and count words, capped so that
// nothing growing one of them runs into the next value.
func (d *Dist) deg(i int) []big.Word {
	s := 2 * i * d.w
	return d.words[s : s+d.w : s+d.w]
}

func (d *Dist) cnt(i int) []big.Word {
	s := (2*i + 1) * d.w
	return d.words[s : s+d.w : s+d.w]
}

// copyInt returns x's value in a big.Int of its own.
func copyInt(x []big.Word) *big.Int { return toInt(new(big.Int), slices.Clone(x)) }

// Entries returns a deep copy of the support, sorted by increasing degree.
func (d *Dist) Entries() []Entry {
	out := make([]Entry, d.Len())
	ints := make([]big.Int, 2*len(out))
	c := Dist{w: d.w, words: slices.Clone(d.words)}
	for i := range out {
		out[i] = Entry{D: toInt(&ints[2*i], c.deg(i)), N: toInt(&ints[2*i+1], c.cnt(i))}
	}
	return out
}

// CountAt returns n(deg) (zero if deg is not in the support).
func (d *Dist) CountAt(deg *big.Int) *big.Int {
	if i, ok := d.find(deg); ok {
		return copyInt(d.cnt(i))
	}
	return new(big.Int)
}

// find returns the index of deg in the support, or where it would go.
func (d *Dist) find(deg *big.Int) (int, bool) {
	x := make([]big.Word, wordsFor(deg))
	putInt(x, deg)
	i := sort.Search(d.Len(), func(i int) bool { return cmpWords(d.deg(i), x) >= 0 })
	return i, i < d.Len() && cmpWords(d.deg(i), x) == 0
}

// fit re-lays the table out w words wide, if it is narrower.
func (d *Dist) fit(w int) {
	if w <= d.w {
		return
	}
	words := make([]big.Word, 2*d.Len()*w)
	for v := range 2 * d.Len() {
		signExtend(words[v*w:(v+1)*w], d.words[v*d.w:(v+1)*d.w])
	}
	d.w, d.words = w, words
}

// AddCount adjusts n(deg) by delta (which may be negative), removing the
// entry when the count reaches zero. It panics if a count would go negative,
// which indicates a corrupted adjustment sequence.
func (d *Dist) AddCount(deg, delta *big.Int) {
	if delta.Sign() == 0 {
		return
	}
	i, ok := d.find(deg)
	if !ok {
		if delta.Sign() < 0 {
			panic(fmt.Sprintf("bigdeg: removing from absent degree %s", deg))
		}
		d.fit(max(wordsFor(deg), wordsFor(delta)))
		d.words = slices.Insert(d.words, 2*i*d.w, make([]big.Word, 2*d.w)...)
		putInt(d.deg(i), deg)
		putInt(d.cnt(i), delta)
		return
	}
	var c big.Int
	n := new(big.Int).Add(toInt(&c, d.cnt(i)), delta)
	switch n.Sign() {
	case 0:
		d.words = slices.Delete(d.words, 2*i*d.w, 2*(i+1)*d.w)
	case -1:
		panic(fmt.Sprintf("bigdeg: count at degree %s went negative", deg))
	default:
		d.fit(wordsFor(n))
		putInt(d.cnt(i), n)
	}
}

// Kron combines two distributions per the paper's identity: a product-graph
// vertex (u, v) has degree dᵤ·dᵥ, so every support pair multiplies in both
// coordinates and colliding degree products merge.
//
// It merges sorted runs. Each entry of the smaller side scales the larger
// side's ascending support into one ascending run; a k-way merge takes the
// runs' products in degree order and appends them, adding a product's count
// into the last output entry when its degree repeats. For k runs that costs
// O(|a|·|b|·log k) word operations, with no search, no insertion and no
// allocation per entry. The one precondition is that degrees are
// non-negative, so scaling keeps each run ascending; every distribution of
// a graph meets it, and Kron panics on one that does not.
func Kron(a, b *Dist) *Dist {
	outer, inner := a, b
	if outer.Len() > inner.Len() {
		outer, inner = inner, outer
	}
	if outer.Len() == 0 {
		return New()
	}
	if negative(outer.deg(0)) || negative(inner.deg(0)) {
		panic("bigdeg: Kron of a distribution with a negative degree")
	}
	w, ni := kronWidth(outer, inner), inner.Len()
	out := &Dist{w: w, words: make([]big.Word, 0, 2*w*outer.Len()*ni)}
	runs := make([]kronRun, outer.Len())
	heads := make([]*kronRun, len(runs))
	prods := make([]big.Word, len(runs)*w)
	for i := range runs {
		r := &runs[i]
		r.d, r.n, r.p = outer.deg(i), outer.cnt(i), prods[i*w:(i+1)*w]
		addMul(r.p, r.d, inner.deg(0))
		heads[i] = r
	}
	// The heads start in the smaller side's ascending degree order, which
	// is already a min-heap.
	for len(heads) > 0 {
		r := heads[0]
		n := len(out.words)
		if n == 0 || !slices.Equal(out.words[n-2*w:n-w], r.p) {
			n += 2 * w
			out.words = out.words[:n]
			copy(out.words[n-2*w:], r.p)
			clear(out.words[n-w:])
		}
		addMul(out.words[n-w:], r.n, inner.cnt(r.j))
		if r.j++; r.j < ni {
			clear(r.p)
			addMul(r.p, r.d, inner.deg(r.j))
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads)
	}
	return out
}

// kronWidth returns the width of a⊗b's table: the words, with the sign
// bit, of its largest degree maxdeg(a)·maxdeg(b) and of its vertex total
// Σn(a)·Σn(b), which no count exceeds.
func kronWidth(a, b *Dist) int {
	var da, db, p big.Int
	p.Mul(toInt(&da, a.deg(a.Len()-1)), toInt(&db, b.deg(b.Len()-1)))
	w := wordsFor(&p)
	p.Mul(a.SumCounts(), b.SumCounts())
	return max(w, wordsFor(&p))
}

// kronRun is one entry of Kron's smaller side scaling the larger side: its
// head is the product with the larger side's entry j.
type kronRun struct {
	d, n []big.Word // the scaling entry's degree and count
	j    int
	p    []big.Word // d times the larger side's j-th degree
}

// siftDown restores the min-heap order of h after its root changed.
func siftDown(h []*kronRun) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1].p, h[c].p) {
			c++
		}
		if !less(h[c].p, h[i].p) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// KronN folds Kron over the factor distributions left to right.
func KronN(factors ...*Dist) (*Dist, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("bigdeg: KronN requires at least one factor")
	}
	if len(factors) == 1 {
		return factors[0].clone(), nil
	}
	acc := Kron(factors[0], factors[1])
	for _, f := range factors[2:] {
		acc = Kron(acc, f)
	}
	return acc, nil
}

func (d *Dist) clone() *Dist {
	return &Dist{w: d.w, words: slices.Clone(d.words)}
}

// SumCounts returns Σ n(d), the number of vertices with nonzero degree.
func (d *Dist) SumCounts() *big.Int {
	// The counts are positive, each below 2^(w·wordBits−1), and fewer
	// than 2^(wordBits−1) of them, so one more word holds their sum.
	acc := make([]big.Word, d.w+1)
	for i := range d.Len() {
		addTo(acc, d.cnt(i))
	}
	return new(big.Int).SetBits(acc)
}

// SumDegreeWeighted returns Σ d·n(d), which for a structural degree
// distribution equals nnz(A).
func (d *Dist) SumDegreeWeighted() *big.Int {
	// A product takes 2w words and the sum one more, sign included.
	acc := make([]big.Word, 2*d.w+1)
	for i := range d.Len() {
		dg := d.deg(i)
		if negative(dg) {
			// Extended to acc's width, a negative degree multiplies
			// exactly modulo 2^(len(acc)·wordBits).
			dg = signExtend(make([]big.Word, len(acc)), dg)
		}
		addMul(acc, dg, d.cnt(i))
	}
	return toInt(new(big.Int), acc)
}

// MaxDegree returns the largest degree in the support (nil for empty).
func (d *Dist) MaxDegree() *big.Int {
	if d.Len() == 0 {
		return nil
	}
	return copyInt(d.deg(d.Len() - 1))
}

// Equal reports whether two distributions have identical support and
// counts, whatever the widths of their tables.
func Equal(a, b *Dist) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if cmpWords(a.deg(i), b.deg(i)) != 0 || cmpWords(a.cnt(i), b.cnt(i)) != 0 {
			return false
		}
	}
	return true
}

// Alpha returns the paper's power-law slope α = log n(1) / log dmax.
// It returns an error when the distribution lacks degree-1 vertices or has
// dmax ≤ 1, where the formula is undefined.
func (d *Dist) Alpha() (float64, error) {
	one := big.NewInt(1)
	i, ok := d.find(one)
	if !ok {
		return 0, fmt.Errorf("bigdeg: distribution has no degree-1 vertices")
	}
	var n1, dmax big.Int
	if toInt(&dmax, d.deg(d.Len()-1)).Cmp(one) <= 0 {
		return 0, fmt.Errorf("bigdeg: max degree ≤ 1")
	}
	return bigLog(toInt(&n1, d.cnt(i))) / bigLog(&dmax), nil
}

// Log returns the natural logarithm of a positive big.Int, accurate to
// float64 precision at any magnitude. It backs power-law slopes here and
// the log-space pruning in the design-search tool.
func Log(x *big.Int) float64 { return bigLog(x) }

// bigLog returns the natural log of a positive big.Int via its bit length,
// exact enough for plotting slopes of astronomically large values.
func bigLog(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	// big.Float has no Log; use mantissa/exponent decomposition:
	// log(m · 2^e) = log(m) + e·log 2 with m ∈ [0.5, 1).
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return math.Log(m) + float64(exp)*math.Ln2
}

// PowerLawDeviation measures how far the support lies from the ideal line
// n(d) = n(1)/d^α in log space, returning the maximum absolute deviation
// max_d |log n(d) − (log n(1) − α·log d)|. A value of 0 means every point is
// exactly on the power law (Figure 5); hub/leaf-loop designs show small
// positive deviations (Figures 6 and 7).
func (d *Dist) PowerLawDeviation() (float64, error) {
	alpha, err := d.Alpha()
	if err != nil {
		return 0, err
	}
	var dv, nv big.Int
	i, _ := d.find(big.NewInt(1))
	logN1 := bigLog(toInt(&nv, d.cnt(i)))
	maxDev := 0.0
	for i := range d.Len() {
		dev := bigLog(toInt(&nv, d.cnt(i))) - (logN1 - alpha*bigLog(toInt(&dv, d.deg(i))))
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev, nil
}

// LogBinned aggregates the distribution into logarithmic bins
// [base^k, base^(k+1)) and returns, per non-empty bin, the bin's lower edge
// exponent k and the summed count. Real-world degree data is usually
// inspected this way (Section III's closing remark).
func (d *Dist) LogBinned(base float64) []LogBin {
	if base <= 1 {
		return nil
	}
	bins := make(map[int]*big.Int)
	var dv, nv big.Int
	for i := range d.Len() {
		k := binExp(toInt(&dv, d.deg(i)), base)
		if bins[k] == nil {
			bins[k] = new(big.Int)
		}
		bins[k].Add(bins[k], toInt(&nv, d.cnt(i)))
	}
	keys := make([]int, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]LogBin, len(keys))
	for i, k := range keys {
		out[i] = LogBin{Exp: k, Count: bins[k]}
	}
	return out
}

// binExp returns k with base^k ≤ deg < base^(k+1). The float estimate is
// corrected by exact big.Float comparisons so degrees landing precisely on a
// bin edge (d = base^k) are never misbinned by rounding.
func binExp(deg *big.Int, base float64) int {
	k := int(math.Floor(bigLog(deg) / math.Log(base)))
	df := new(big.Float).SetInt(deg)
	for basePow(base, k+1).Cmp(df) <= 0 {
		k++
	}
	for k > 0 && basePow(base, k).Cmp(df) > 0 {
		k--
	}
	return k
}

// basePow computes base^k as a big.Float for k ≥ 0.
func basePow(base float64, k int) *big.Float {
	acc := big.NewFloat(1)
	b := big.NewFloat(base)
	for i := 0; i < k; i++ {
		acc.Mul(acc, b)
	}
	return acc
}

// LogBin is one logarithmic bin: degrees in [base^Exp, base^(Exp+1)) hold
// Count vertices in total.
type LogBin struct {
	Exp   int
	Count *big.Int
}

// Table renders the distribution as a two-column text table.
func (d *Dist) Table() string {
	var b strings.Builder
	var dv, nv big.Int
	fmt.Fprintf(&b, "%-40s %s\n", "degree d", "count n(d)")
	for i := range d.Len() {
		fmt.Fprintf(&b, "%-40s %s\n", toInt(&dv, d.deg(i)).String(), toInt(&nv, d.cnt(i)).String())
	}
	return b.String()
}

// CSV renders the distribution as "degree,count" lines with a header.
func (d *Dist) CSV() string {
	var b strings.Builder
	var v big.Int
	b.WriteString("degree,count\n")
	for i := range d.Len() {
		b.WriteString(toInt(&v, d.deg(i)).String())
		b.WriteByte(',')
		b.WriteString(toInt(&v, d.cnt(i)).String())
		b.WriteByte('\n')
	}
	return b.String()
}
