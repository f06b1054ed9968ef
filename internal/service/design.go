// Package service is the streaming graph-generation job service: the
// paper's design → generate → validate workflow behind a long-running HTTP
// API. Clients POST a Kronecker star-product design and get its exact
// closed-form properties back instantly (no generation); they POST a job to
// realize the design with the communication-free parallel generator and
// stream its edges out chunked while generation runs; and they GET a
// validation that re-measures a finished job and confirms the paper's exact
// agreement. The subsystem comprises a bounded-admission job manager
// (job.go), REST handlers (handlers.go), a backpressured streaming encoder
// layer (stream.go), shard plans (shardplan.go), the one LRU behind the
// design-property, design-hash and shard-plan caches (cache.go), and
// counters/gauges (metrics.go).
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/kron"
)

// DesignRequest is the wire form of a design: the m̂ point counts of the
// constituent stars plus the uniform loop mode ("none", "hub", or "leaf").
type DesignRequest struct {
	Points []int  `json:"points"`
	Loop   string `json:"loop"`
}

// Build validates the request and constructs the design, preserving the
// factor order (generation depends on it).
func (r DesignRequest) Build() (*kron.Design, error) {
	if len(r.Points) == 0 {
		return nil, fmt.Errorf("points list is required (e.g. [3,4,5])")
	}
	loop, err := kron.ParseLoopMode(r.Loop)
	if err != nil {
		return nil, err
	}
	return kron.FromPoints(r.Points, loop)
}

// Key returns the canonical cache key of the design. Every closed-form
// property — vertex count, edge count, degree distribution, triangles — is a
// product over factors and therefore invariant under factor reordering, so
// the key sorts the points: {25,4,3} and {3,4,25} hit the same cache line.
func (r DesignRequest) Key() string {
	pts := append([]int(nil), r.Points...)
	sort.Ints(pts)
	return DesignRequest{Points: pts, Loop: r.Loop}.label()
}

// label renders the design as "loop|p1,p2,..." with the points in request
// order, the order generation follows.
func (r DesignRequest) label() string {
	var b strings.Builder
	b.WriteString(r.Loop)
	b.WriteByte('|')
	for i, p := range r.Points {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// Hash returns the design's generation identity: a short hex digest over the
// loop mode and the points in request order. Unlike Key, Hash does NOT sort
// the points — closed-form properties are factor-order invariant, but shard
// plans and streams are not (generation follows the B factors' realization
// order) — so two factor orders share a property cache line yet carry
// distinct shard-plan identities.
func (r DesignRequest) Hash() string {
	h := sha256.New()
	h.Write([]byte(r.Loop))
	for _, p := range r.Points {
		fmt.Fprintf(h, "|%d", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// DesignProperties is the JSON rendering of a design's exact property set.
// Counts that routinely exceed int64 (the paper designs 10^30-edge graphs)
// travel as decimal strings.
type DesignProperties struct {
	Design DesignRequest `json:"design"`
	// Hash is the design's generation identity, the {hash} of the shard-plan
	// endpoint /v1/designs/{hash}/shardplan.
	Hash            string  `json:"hash"`
	Vertices        string  `json:"vertices"`
	Edges           string  `json:"edges"`
	Triangles       string  `json:"triangles"`
	MaxDegree       string  `json:"maxDegree"`
	Alpha           float64 `json:"alpha"`
	DistinctDegrees int     `json:"distinctDegrees"`
	// Cached reports whether the properties were served from the LRU cache
	// rather than recomputed.
	Cached bool `json:"cached"`
}

// computeProperties evaluates the closed forms for the request.
func computeProperties(req DesignRequest) (*DesignProperties, error) {
	d, err := req.Build()
	if err != nil {
		return nil, err
	}
	p, err := d.Compute()
	if err != nil {
		return nil, err
	}
	return &DesignProperties{
		Design:          req,
		Hash:            req.Hash(),
		Vertices:        p.Vertices.String(),
		Edges:           p.Edges.String(),
		Triangles:       p.Triangles.String(),
		MaxDegree:       p.MaxDegree.String(),
		Alpha:           p.Alpha,
		DistinctDegrees: p.Degrees.Len(),
	}, nil
}
