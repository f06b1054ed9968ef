package bigdeg

import (
	"math/big"
	"strings"
	"testing"
)

// FuzzParseCSV checks the distribution parser never panics and that
// accepted inputs round-trip through CSV rendering.
func FuzzParseCSV(f *testing.F) {
	f.Add("degree,count\n1,5\n3,2\n")
	f.Add("2705963586782877716483871216764,1\n")
	f.Add("# x\n\n7 , 9\n")
	f.Add("0,0\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		back, err := ParseCSV(strings.NewReader(d.CSV()))
		if err != nil {
			t.Fatalf("round trip of accepted distribution failed: %v", err)
		}
		if !Equal(d, back) {
			t.Fatal("round trip changed distribution")
		}
		// Invariants of any accepted distribution.
		if d.Len() > 0 {
			if d.Entries()[0].D.Sign() <= 0 {
				t.Fatal("non-positive degree accepted")
			}
			if d.SumCounts().Sign() <= 0 {
				t.Fatal("non-positive total count")
			}
		}
	})
}

// FuzzKron checks Kron, in both argument orders, against the map oracle on
// two small distributions decoded from the input.
func FuzzKron(f *testing.F) {
	f.Add([]byte{2, 2, 5, 0, 4, 1, 0, 1, 3, 0, 2, 9, 1})
	f.Add([]byte{1, 0, 7, 3, 6, 2, 0, 6, 2, 1, 12, 9, 2, 4, 4, 1})
	f.Add([]byte{0, 5, 5, 0})
	// Degrees past 2^130 and counts just below 2^128 on both sides, a zero
	// degree among them: multi-word products whose colliding sums carry
	// into a new top word.
	f.Add([]byte{3, 2, 9, 12, 4, 200, 8, 0, 3, 4, 1, 255, 12, 2, 7, 8, 4, 1, 9, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rest := data[1:]
		cut := min(3*int(data[0]), len(rest))
		a, b := fuzzDist(rest[:cut]), fuzzDist(rest[cut:])
		want := oracleOf(a).kron(b)
		checkOracle(t, "a⊗b", Kron(a, b), want)
		checkOracle(t, "b⊗a", Kron(b, a), want)
	})
}

// fuzzDist decodes three bytes an entry: a degree below 64, so products
// collide often, and a positive count. Flag bits shift the degree past
// 2^64 or 2^130 and the count past 2^70, or set the count to 2^128 less
// the byte, so that colliding sums carry into a new top word.
func fuzzDist(bs []byte) *Dist {
	d := New()
	for ; len(bs) >= 3; bs = bs[3:] {
		deg := big.NewInt(int64(bs[0] % 64))
		cnt := big.NewInt(int64(bs[1]) + 1)
		if bs[2]&1 != 0 {
			deg.Lsh(deg, 64)
		}
		if bs[2]&2 != 0 {
			cnt.Lsh(cnt, 70)
		}
		if bs[2]&4 != 0 {
			deg.Lsh(deg, 130)
		}
		if bs[2]&8 != 0 {
			cnt.Sub(new(big.Int).Lsh(big.NewInt(1), 128), cnt)
		}
		d.AddCount(deg, cnt)
	}
	return d
}
