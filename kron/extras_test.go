package kron_test

import (
	"math"
	"math/big"
	"testing"

	"repro/kron"
)

func TestFindDesignsThroughFacade(t *testing.T) {
	target, _ := new(big.Int).SetString("1146617856000", 10)
	res, err := kron.FindDesigns(target, kron.SearchOptions{
		Candidates: []int{3, 4, 5, 9, 16, 25, 81, 256},
		Loop:       kron.LoopNone,
		MinFactors: 1,
		MaxFactors: 8,
		Tol:        0.01,
		MaxResults: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].RelErr != 0 {
		t.Fatalf("results = %v, want the exact trillion design first", res)
	}
}

func TestSpectralRadiusThroughFacade(t *testing.T) {
	d, err := kron.FromPoints([]int{4, 9}, kron.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	r, err := kron.SpectralRadius(d)
	if err != nil {
		t.Fatal(err)
	}
	// Plain stars: radius = √4·√9 = 6.
	if math.Abs(r-6) > 1e-9 {
		t.Errorf("radius = %v, want 6", r)
	}
}

func TestAnalyzeThroughFacade(t *testing.T) {
	d, err := kron.FromPoints([]int{5, 3}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := kron.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, k := g.ConnectedComponents(); k != 1 {
		t.Errorf("components = %d, want 1", k)
	}
}
