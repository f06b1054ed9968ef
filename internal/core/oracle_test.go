package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigdeg"
	"repro/internal/star"
)

// primePowerPool holds the m̂ values of kronperf's design workload: powers
// of 2, 3, 5, 7 and 11 up to 14641, so degree products collide the way
// Figure 7's do.
var primePowerPool = []int{
	2, 4, 8, 16, 32, 64, 128, 256,
	3, 9, 27, 81, 243,
	5, 25, 125, 625,
	7, 49, 343, 2401,
	11, 121, 1331, 14641,
}

// degreeOracle is a degree distribution as a map keyed by degree: the
// definition of nA(d) = ⊗ₖ nAₖ(d), with no order or width to get wrong.
type degreeOracle map[string][2]*big.Int

// add adjusts n(deg) by delta, dropping the degree when its count reaches
// zero.
func (o degreeOracle) add(deg, delta *big.Int) {
	k := string(deg.Bytes())
	e, ok := o[k]
	if !ok {
		e = [2]*big.Int{deg, new(big.Int)}
	}
	if e[1].Add(e[1], delta).Sign() == 0 {
		delete(o, k)
		return
	}
	o[k] = e
}

// times returns the Kronecker product of o with one factor's distribution.
func (o degreeOracle) times(f map[int64]int64) degreeOracle {
	out := degreeOracle{}
	for _, e := range o {
		for fd, fn := range f {
			out.add(new(big.Int).Mul(e[0], big.NewInt(fd)), new(big.Int).Mul(e[1], big.NewInt(fn)))
		}
	}
	return out
}

// TestComputeMatchesFactorOracle draws 500 designs from the prime-power
// pool, in every loop mode with 1 to 15 factors (13 for leaf loops), and
// checks every property Compute reports against the per-factor map oracle
// with the paper's loop adjustment: vertices Σn(d), edges Σd·n(d),
// triangles from the factors' closed-walk counts, the largest degree, α bit
// for bit, the number of distinct degrees, and every (degree, count) pair.
func TestComputeMatchesFactorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	one := big.NewInt(1)
	for trial := range 500 {
		loop := star.LoopMode(trial % 3)
		k := 1 + rng.Intn(15)
		if loop == star.LoopLeaf {
			k = 1 + rng.Intn(13)
		}
		pts := make([]int, k)
		for i, j := range rng.Perm(len(primePowerPool))[:k] {
			pts[i] = primePowerPool[j]
		}
		d, err := FromPoints(pts, loop)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Compute()
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}

		o := degreeOracle{"\x01": {one, one}}
		trace, loopDeg := big.NewInt(1), big.NewInt(1)
		for _, f := range d.Factors() {
			o = o.times(f.DegreeDistribution())
			trace.Mul(trace, big.NewInt(f.TraceA3()))
			switch loop {
			case star.LoopHub:
				loopDeg.Mul(loopDeg, big.NewInt(int64(f.Points)+1))
			case star.LoopLeaf:
				loopDeg.Lsh(loopDeg, 1)
			}
		}
		tri := new(big.Int).Set(trace)
		if loop != star.LoopNone {
			// The loop-carrying vertex loses its self-loop: degree dℓ
			// becomes dℓ − 1, and (1/6)∏tₖ − dℓ/2 + 1/3 triangles remain.
			o.add(loopDeg, big.NewInt(-1))
			o.add(new(big.Int).Sub(loopDeg, one), one)
			tri.Sub(tri, new(big.Int).Mul(loopDeg, big.NewInt(3)))
			tri.Add(tri, big.NewInt(2))
		}
		if new(big.Int).Mod(tri, big.NewInt(6)).Sign() != 0 {
			t.Fatalf("%v: 6·triangles = %s is not a multiple of 6", d, tri)
		}
		tri.Quo(tri, big.NewInt(6))

		vertices, edges, dmax := new(big.Int), new(big.Int), new(big.Int)
		for _, e := range o {
			vertices.Add(vertices, e[1])
			edges.Add(edges, new(big.Int).Mul(e[0], e[1]))
			if e[0].Cmp(dmax) > 0 {
				dmax = e[0]
			}
		}
		alpha := bigdeg.Log(o["\x01"][1]) / bigdeg.Log(dmax)

		for _, c := range []struct {
			name      string
			got, want *big.Int
		}{
			{"vertices", got.Vertices, vertices},
			{"edges", got.Edges, edges},
			{"triangles", got.Triangles, tri},
			{"max degree", got.MaxDegree, dmax},
		} {
			if c.got.Cmp(c.want) != 0 {
				t.Fatalf("%v: %s = %s, oracle %s", d, c.name, c.got, c.want)
			}
		}
		if math.Float64bits(got.Alpha) != math.Float64bits(alpha) {
			t.Fatalf("%v: alpha = %v, oracle %v", d, got.Alpha, alpha)
		}
		if got.Degrees.Len() != len(o) {
			t.Fatalf("%v: %d distinct degrees, oracle %d", d, got.Degrees.Len(), len(o))
		}
		for _, e := range got.Degrees.Entries() {
			if w, ok := o[string(e.D.Bytes())]; !ok || w[1].Cmp(e.N) != 0 {
				t.Fatalf("%v: n(%s) = %s, oracle %v", d, e.D, e.N, w[1])
			}
		}
	}
}

// computeAllocsPerFactor bounds Design.Compute's allocations per factor.
// Each fold step allocates a fixed handful of tables and sums, so the
// count follows the number of factors, not the number of distinct degrees:
// fig5's 512 degrees and fig7's 86,017 take 15 to 19 per factor.
const computeAllocsPerFactor = 24

// TestComputeAllocsPerFactor holds Compute to computeAllocsPerFactor on
// designs whose distributions run from 512 to 86,017 distinct degrees.
func TestComputeAllocsPerFactor(t *testing.T) {
	quadrillion := []int{3, 4, 5, 9, 16, 25, 81, 256, 625}
	decetta := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	for _, c := range []struct {
		name string
		pts  []int
		loop star.LoopMode
	}{
		{"fig5", quadrillion, star.LoopNone},
		{"fig6", quadrillion, star.LoopHub},
		{"fig7", decetta, star.LoopLeaf},
		{"decetta-hub", decetta, star.LoopHub},
	} {
		d, err := FromPoints(c.pts, c.loop)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Compute()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := d.Compute(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d factors, %d distinct degrees, %.0f allocs (%.1f per factor)",
			c.name, len(c.pts), p.Degrees.Len(), allocs, allocs/float64(len(c.pts)))
		if allocs > float64(computeAllocsPerFactor*len(c.pts)) {
			t.Errorf("%s: Compute allocates %.0f times, over %d per factor (%d); "+
				"an allocation per degree entry is back", c.name, allocs, computeAllocsPerFactor, computeAllocsPerFactor*len(c.pts))
		}
	}
}
