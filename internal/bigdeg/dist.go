// Package bigdeg implements exact, arbitrary-precision degree distributions.
//
// Section IV of the paper computes the degree distribution of a Kronecker
// graph as the Kronecker product of the factor distributions,
// nA(d) = ⊗ₖ nAₖ(d); for the 10³⁰-edge designs both the degrees and the
// counts exceed uint64, so everything here is math/big.
package bigdeg

import (
	"fmt"
	"maps"
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
type Dist struct {
	entries []Entry
}

// New returns an empty distribution.
func New() *Dist { return &Dist{} }

// FromInt64Map builds a distribution from small (per-factor) degree counts.
// Keys are added in ascending order, so each one appends.
func FromInt64Map(m map[int64]int64) *Dist {
	d := &Dist{entries: make([]Entry, 0, len(m))}
	for _, deg := range slices.Sorted(maps.Keys(m)) {
		if n := m[deg]; n != 0 {
			d.AddCount(big.NewInt(deg), big.NewInt(n))
		}
	}
	return d
}

// Len returns the number of distinct degrees.
func (d *Dist) Len() int { return len(d.entries) }

// Entries returns a deep copy of the support, sorted by increasing degree.
func (d *Dist) Entries() []Entry {
	out := make([]Entry, len(d.entries))
	for i, e := range d.entries {
		out[i] = Entry{D: new(big.Int).Set(e.D), N: new(big.Int).Set(e.N)}
	}
	return out
}

// CountAt returns n(deg) (zero if deg is not in the support).
func (d *Dist) CountAt(deg *big.Int) *big.Int {
	i := d.search(deg)
	if i < len(d.entries) && d.entries[i].D.Cmp(deg) == 0 {
		return new(big.Int).Set(d.entries[i].N)
	}
	return new(big.Int)
}

// search returns the insertion index for deg.
func (d *Dist) search(deg *big.Int) int {
	return sort.Search(len(d.entries), func(i int) bool {
		return d.entries[i].D.Cmp(deg) >= 0
	})
}

// AddCount adjusts n(deg) by delta (which may be negative), removing the
// entry when the count reaches zero. It panics if a count would go negative,
// which indicates a corrupted adjustment sequence.
func (d *Dist) AddCount(deg, delta *big.Int) {
	if delta.Sign() == 0 {
		return
	}
	i := d.search(deg)
	if i < len(d.entries) && d.entries[i].D.Cmp(deg) == 0 {
		n := d.entries[i].N.Add(d.entries[i].N, delta)
		switch n.Sign() {
		case 0:
			d.entries = append(d.entries[:i], d.entries[i+1:]...)
		case -1:
			panic(fmt.Sprintf("bigdeg: count at degree %s went negative", deg))
		}
		return
	}
	if delta.Sign() < 0 {
		panic(fmt.Sprintf("bigdeg: removing from absent degree %s", deg))
	}
	d.entries = append(d.entries, Entry{})
	copy(d.entries[i+1:], d.entries[i:])
	d.entries[i] = Entry{D: new(big.Int).Set(deg), N: new(big.Int).Set(delta)}
}

// Kron combines two distributions per the paper's identity: a product-graph
// vertex (u, v) has degree dᵤ·dᵥ, so every support pair multiplies in both
// coordinates and colliding degree products merge.
//
// It merges sorted runs. Each entry of the smaller side scales the larger
// side's ascending support into one ascending run; a k-way merge takes the
// runs' products in degree order and appends them, adding a product's count
// into the last output entry when its degree repeats. For k runs that costs
// O(|a|·|b|·log k), with no search and no insertion. The one precondition
// is that degrees are non-negative, so scaling keeps each run ascending;
// every distribution of a graph meets it, and Kron panics on one that
// does not.
func Kron(a, b *Dist) *Dist {
	outer, inner := a.entries, b.entries
	if len(outer) > len(inner) {
		outer, inner = inner, outer
	}
	out := &Dist{entries: make([]Entry, 0, len(outer)*len(inner))}
	if len(outer) == 0 {
		return out
	}
	if outer[0].D.Sign() < 0 || inner[0].D.Sign() < 0 {
		panic("bigdeg: Kron of a distribution with a negative degree")
	}
	runs := make([]kronRun, len(outer))
	heads := make([]*kronRun, len(outer))
	for i := range runs {
		r := &runs[i]
		r.scale = outer[i]
		r.d.Mul(r.scale.D, inner[0].D)
		heads[i] = r
	}
	// The heads start in the smaller side's ascending degree order, which
	// is already a min-heap.
	mem := arena{left: 2 * len(outer) * len(inner)}
	var cnt big.Int
	for len(heads) > 0 {
		r := heads[0]
		eb := inner[r.j]
		cnt.Mul(r.scale.N, eb.N)
		if n := len(out.entries); n > 0 && out.entries[n-1].D.Cmp(&r.d) == 0 {
			last := out.entries[n-1].N
			last.Add(last, &cnt)
		} else {
			// N gets a spare word, so adding a colliding count rarely
			// outgrows it.
			out.entries = append(out.entries, Entry{
				D: mem.alloc(len(r.d.Bits())).Set(&r.d),
				N: mem.alloc(len(cnt.Bits()) + 1).Set(&cnt),
			})
		}
		r.j++
		if r.j < len(inner) {
			r.d.Mul(r.scale.D, inner[r.j].D)
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads)
	}
	return out
}

// kronRun is one entry of Kron's smaller side scaling the larger side: its
// head is the product with the larger side's entry j.
type kronRun struct {
	scale Entry
	j     int
	d     big.Int // scale.D times the larger side's j-th degree
}

// siftDown restores the min-heap order of h after its root changed.
func siftDown(h []*kronRun) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].d.Cmp(&h[c].d) < 0 {
			c++
		}
		if h[i].d.Cmp(&h[c].d) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// arenaChunk is how many big.Ints one arena chunk holds.
const arenaChunk = 1024

// arena hands out big.Ints with their digit storage reserved, from chunks,
// so Kron allocates once per chunk instead of twice per product.
type arena struct {
	ints  []big.Int
	words []big.Word
	left  int // big.Ints still to be asked for, at most; caps chunk sizes
}

// alloc returns a zero big.Int with room for the given number of words.
func (m *arena) alloc(words int) *big.Int {
	n := min(m.left, arenaChunk)
	m.left--
	if len(m.ints) == 0 {
		m.ints = make([]big.Int, n)
	}
	if len(m.words) < words {
		m.words = make([]big.Word, n*words)
	}
	z := &m.ints[0]
	m.ints = m.ints[1:]
	z.SetBits(m.words[:0:words])
	m.words = m.words[words:]
	return z
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
	return &Dist{entries: d.Entries()}
}

// SumCounts returns Σ n(d), the number of vertices with nonzero degree.
func (d *Dist) SumCounts() *big.Int {
	acc := new(big.Int)
	for _, e := range d.entries {
		acc.Add(acc, e.N)
	}
	return acc
}

// SumDegreeWeighted returns Σ d·n(d), which for a structural degree
// distribution equals nnz(A).
func (d *Dist) SumDegreeWeighted() *big.Int {
	acc := new(big.Int)
	var t big.Int
	for _, e := range d.entries {
		acc.Add(acc, t.Mul(e.D, e.N))
	}
	return acc
}

// MaxDegree returns the largest degree in the support (nil for empty).
func (d *Dist) MaxDegree() *big.Int {
	if len(d.entries) == 0 {
		return nil
	}
	return new(big.Int).Set(d.entries[len(d.entries)-1].D)
}

// MinDegree returns the smallest degree in the support (nil for empty).
func (d *Dist) MinDegree() *big.Int {
	if len(d.entries) == 0 {
		return nil
	}
	return new(big.Int).Set(d.entries[0].D)
}

// Equal reports whether two distributions have identical support and counts.
func Equal(a, b *Dist) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i := range a.entries {
		if a.entries[i].D.Cmp(b.entries[i].D) != 0 || a.entries[i].N.Cmp(b.entries[i].N) != 0 {
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
	n1 := d.CountAt(one)
	if n1.Sign() == 0 {
		return 0, fmt.Errorf("bigdeg: distribution has no degree-1 vertices")
	}
	dmax := d.MaxDegree()
	if dmax == nil || dmax.Cmp(one) <= 0 {
		return 0, fmt.Errorf("bigdeg: max degree ≤ 1")
	}
	return bigLog(n1) / bigLog(dmax), nil
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
	logN1 := bigLog(d.CountAt(big.NewInt(1)))
	maxDev := 0.0
	for _, e := range d.entries {
		dev := bigLog(e.N) - (logN1 - alpha*bigLog(e.D))
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
	for _, e := range d.entries {
		k := binExp(e.D, base)
		if bins[k] == nil {
			bins[k] = new(big.Int)
		}
		bins[k].Add(bins[k], e.N)
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
	fmt.Fprintf(&b, "%-40s %s\n", "degree d", "count n(d)")
	for _, e := range d.entries {
		fmt.Fprintf(&b, "%-40s %s\n", e.D.String(), e.N.String())
	}
	return b.String()
}

// CSV renders the distribution as "degree,count" lines with a header.
func (d *Dist) CSV() string {
	var b strings.Builder
	b.WriteString("degree,count\n")
	for _, e := range d.entries {
		b.WriteString(e.D.String())
		b.WriteByte(',')
		b.WriteString(e.N.String())
		b.WriteByte('\n')
	}
	return b.String()
}
