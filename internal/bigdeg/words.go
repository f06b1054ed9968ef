package bigdeg

import (
	"math/big"
	"math/bits"
)

// A value in a Dist's table is a little-endian slice of big.Words holding a
// two's-complement integer: the top bit of the top word is its sign. The
// helpers here are the table's whole arithmetic.

const wordBits = bits.UintSize

// wordsFor returns how many words hold v with its sign bit.
func wordsFor(v *big.Int) int { return v.BitLen()/wordBits + 1 }

// negative reports whether x's sign bit is set.
func negative(x []big.Word) bool { return x[len(x)-1]>>(wordBits-1) != 0 }

// wordAt returns x's i-th word, extending its sign past its top.
func wordAt(x []big.Word, i int) big.Word {
	switch {
	case i < len(x):
		return x[i]
	case negative(x):
		return ^big.Word(0)
	}
	return 0
}

// signExtend copies x into the wider z, extending its sign, and returns z.
func signExtend(z, x []big.Word) []big.Word {
	for i := range z {
		z[i] = wordAt(x, i)
	}
	return z
}

// cmpWords compares the signed values x and y, of any widths, returning
// -1, 0 or +1.
func cmpWords(x, y []big.Word) int {
	n := max(len(x), len(y))
	// In the top word signed order is unsigned order with the sign bit
	// flipped; below it the words are unsigned.
	flip := big.Word(1) << (wordBits - 1)
	for i := n - 1; i >= 0; i, flip = i-1, 0 {
		xi, yi := wordAt(x, i)^flip, wordAt(y, i)^flip
		if xi != yi {
			if xi < yi {
				return -1
			}
			return 1
		}
	}
	return 0
}

// less reports x < y for non-negative values of one width.
func less(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// addTo adds the non-negative x into z, which is at least as wide.
func addTo(z, x []big.Word) {
	var c uint
	for i, xi := range x {
		s, cc := bits.Add(uint(z[i]), uint(xi), c)
		z[i], c = big.Word(s), cc
	}
	for i := len(x); c != 0 && i < len(z); i++ {
		s, cc := bits.Add(uint(z[i]), 0, c)
		z[i], c = big.Word(s), cc
	}
}

// addMul adds x·y into z modulo 2^(len(z)·wordBits): partial products and
// carries past z's top word are dropped. Sized to hold the true result, z
// takes x·y exactly; one pass over y per non-zero word of x, so a one-word
// x costs one pass.
func addMul(z, x, y []big.Word) {
	for i, xi := range x[:min(len(x), len(z))] {
		if xi == 0 {
			continue
		}
		zi := z[i:]
		yi := y[:min(len(y), len(zi))]
		var c uint
		for j, yj := range yi {
			hi, lo := bits.Mul(uint(xi), uint(yj))
			lo, cc := bits.Add(lo, uint(zi[j]), 0)
			hi += cc
			lo, cc = bits.Add(lo, c, 0)
			zi[j], c = big.Word(lo), hi+cc
		}
		for j := len(yi); c != 0 && j < len(zi); j++ {
			s, cc := bits.Add(uint(zi[j]), c, 0)
			zi[j], c = big.Word(s), cc
		}
	}
}

// negate sets z to −x modulo 2^(len(z)·wordBits); z and x have one width
// and may be the same slice.
func negate(z, x []big.Word) {
	c := uint(1)
	for i, xi := range x {
		s, cc := bits.Add(uint(^xi), 0, c)
		z[i], c = big.Word(s), cc
	}
}

// putInt writes v into x, which must hold it with its sign bit.
func putInt(x []big.Word, v *big.Int) {
	clear(x[copy(x, v.Bits()):])
	if v.Sign() < 0 {
		negate(x, x)
	}
}

// putInt64 writes v into x, which must hold it with its sign bit.
func putInt64(x []big.Word, v int64) {
	for i := range x {
		x[i] = big.Word(v >> (i * wordBits))
	}
}

// toInt sets z to x's value and returns it. A non-negative value shares x's
// words, so z is then a read-only view of them; a negative one gets its own.
func toInt(z *big.Int, x []big.Word) *big.Int {
	if !negative(x) {
		return z.SetBits(x)
	}
	m := make([]big.Word, len(x))
	negate(m, x)
	return z.SetBits(m).Neg(z)
}
