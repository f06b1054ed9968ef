package kron_test

import (
	"context"
	"testing"

	"repro/kron"
)

// End-to-end through the public API only: design → properties → generate →
// validate, the library's advertised workflow.
func TestPublicWorkflow(t *testing.T) {
	d, err := kron.FromPoints([]int{3, 4, 5}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if p.Vertices.Int64() != 120 {
		t.Errorf("vertices = %s, want 120", p.Vertices)
	}
	if p.Edges.Int64() != 692 { // 7·9·11 − 1
		t.Errorf("edges = %s, want 692", p.Edges)
	}

	g, err := kron.NewGenerator(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	total, _, err := g.CountEdges(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if total != 692 {
		t.Errorf("generated %d edges, want 692", total)
	}

	r, err := kron.Validate(context.Background(), d, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ExactAgreement {
		t.Errorf("validation mismatches: %v", r.Mismatches)
	}
}

func TestPublicExtremeScaleDesign(t *testing.T) {
	// The decetta design is usable through the facade without generation.
	pts := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	d, err := kron.FromPoints(pts, kron.LoopLeaf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if p.Edges.String() != "2705963586782877716483871216764" {
		t.Errorf("decetta edges = %s", p.Edges)
	}
	if p.Triangles.String() != "178940587" {
		t.Errorf("decetta triangles = %s", p.Triangles)
	}
}

func TestParseLoopMode(t *testing.T) {
	m, err := kron.ParseLoopMode("leaf")
	if err != nil || m != kron.LoopLeaf {
		t.Errorf("ParseLoopMode(leaf) = %v, %v", m, err)
	}
	if _, err := kron.ParseLoopMode("x"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestPublicRMATBaseline(t *testing.T) {
	p := kron.Graph500Params(10, 8, 123)
	edges, err := kron.RMATGenerate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := kron.RMATMeasure(edges, p.NumVertices())
	if m.UniqueEdges == 0 {
		t.Error("no unique edges")
	}
	// The contrast the paper draws: R-MAT's realized properties differ from
	// its nominal parameters (duplicates/self-loops), unlike the designer.
	if m.UniqueEdges == p.NumSampledEdges() {
		t.Error("expected sampling artifacts at Graph500 skew")
	}
}

func TestNewDesignWithSpecs(t *testing.T) {
	d, err := kron.NewDesign([]kron.StarSpec{
		{Points: 5, Loop: kron.LoopLeaf},
		{Points: 3, Loop: kron.LoopLeaf},
	})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := d.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if tri.Int64() != 1 {
		t.Errorf("triangles = %s, want 1", tri)
	}
}

// A fold sink built for fewer workers than the pass runs must fail the pass
// with an error, not index past its slots inside a generation goroutine
// (which crashed the whole process).
func TestFoldSinkRejectsExtraWorkers(t *testing.T) {
	d, err := kron.FromPoints([]int{3, 4, 5}, kron.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := kron.NewGenerator(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, sink := range map[string]kron.Sink{
		"counter":  kron.NewCounter(1),
		"checksum": kron.NewChecksum(1),
	} {
		if err := kron.StreamTo(context.Background(), g, 4, 0, sink); err == nil {
			t.Errorf("%s built for 1 worker accepted a 4-worker pass", name)
		}
	}
}
