package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"

	"repro/kron"
)

// maxShards bounds the shard count of plans and sharded jobs: a plan
// response carries one entry per shard, so an unbounded count would let one
// GET allocate arbitrarily.
const maxShards = 1 << 16

// maxChecksumEdges bounds the edges a ?checksums=1 shard-plan request may
// enumerate synchronously; larger plans must be verified shard-by-shard by
// the processes that generate them.
const maxChecksumEdges = 1 << 30

// planKey names one deterministic plan: the design's order-sensitive hash
// plus the split point and shard count that parameterize it.
func planKey(hash string, split, shards int) string {
	return fmt.Sprintf("%s|%d|%d", hash, split, shards)
}

// planFor returns the shard plan for (design, split, shards), serving from
// the plan LRU when possible. A miss — including a plan evicted since the
// coordinator fetched it — rebuilds from the design's closed forms;
// determinism of kron.PlanShards guarantees the rebuilt ranges are identical
// to the evicted ones, so a shard job admitted after eviction generates
// exactly the slice the original plan promised. Validation mirrors
// kron.BalancedSplitPoint's style: every bad parameter is a typed error
// before any work is committed.
func (m *Manager) planFor(req DesignRequest, d *kron.Design, split, shards int) ([]kron.ShardInfo, bool, error) {
	if shards < 1 {
		return nil, false, fmt.Errorf("shards %d; a plan needs at least 1", shards)
	}
	if shards > maxShards {
		return nil, false, fmt.Errorf("shards %d over the plan bound %d", shards, maxShards)
	}
	key := planKey(req.Hash(), split, shards)
	if plan, ok := m.plans.get(key); ok {
		m.metrics.PlanCacheHits.Add(1)
		return plan, true, nil
	}
	plan, err := kron.PlanShards(d, split, shards)
	if err != nil {
		return nil, false, err
	}
	m.metrics.ShardPlansBuilt.Add(1)
	m.plans.put(key, plan)
	return plan, false, nil
}

// ShardPlanResponse is the JSON rendering of a deterministic shard plan —
// what a coordinator (or each of N replicas behind a dumb load balancer)
// fetches to partition one design across independent kronserve processes.
type ShardPlanResponse struct {
	Design DesignRequest `json:"design"`
	Hash   string        `json:"hash"`
	// Split is the resolved split point nb; submit shard jobs with exactly
	// this value (or 0 if the plan itself was fetched with the default) so
	// every replica prices the same B ⊗ C decomposition.
	Split      int   `json:"split"`
	Shards     int   `json:"shards"`
	TotalEdges int64 `json:"totalEdges"`
	BNNZ       int64 `json:"bnnz"`
	CNNZ       int64 `json:"cnnz"`
	// Checksummed reports whether each shard's Checksum field was filled by
	// enumeration (?checksums=1).
	Checksummed bool `json:"checksummed"`
	// Cached reports whether the plan came from the plan LRU.
	Cached bool             `json:"cached"`
	Plan   []kron.ShardInfo `json:"plan"`
}

// handleShardPlan serves GET /v1/designs/{hash}/shardplan?shards=K[&split=nb]
// [&checksums=1]. The hash comes from POST /v1/designs (or any job status);
// an unknown hash is 404 — re-POST the design to re-register it. The plan is
// closed-form and instant; ?checksums=1 additionally realizes the generator
// and enumerates every shard, so it is bounded by maxChecksumEdges and the
// same B/C realization limits as jobs.
func (s *Service) handleShardPlan(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	req, ok := s.hashes.get(hash)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown design hash %q; POST the design to /v1/designs first", hash))
		return
	}
	q := r.URL.Query()
	shardsStr := q.Get("shards")
	if shardsStr == "" {
		writeError(w, http.StatusBadRequest, "shards query parameter is required")
		return
	}
	shards, err := strconv.Atoi(shardsStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad shards %q: %v", shardsStr, err))
		return
	}
	split := 0
	if v := q.Get("split"); v != "" {
		if split, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad split %q: %v", v, err))
			return
		}
	}
	d, err := req.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The plan reports both sides' sizes without enforcing MaxCNNZ and
	// MaxBNNZ: a coordinator may plan for replicas configured with larger
	// bounds. Only ?checksums=1, which realizes the generator here, checks
	// them.
	sides, err := s.manager.resolveSplit(d, split)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	plan, cached, err := s.manager.planFor(req, d, sides.split, shards)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var total int64
	for _, sh := range plan {
		total += sh.Edges
	}
	resp := ShardPlanResponse{
		Design:     req,
		Hash:       hash,
		Split:      sides.split,
		Shards:     shards,
		TotalEdges: total,
		BNNZ:       sides.bnnz.Int64(),
		CNNZ:       sides.cnnz.Int64(),
		Cached:     cached,
		Plan:       plan,
	}
	if v := q.Get("checksums"); v == "1" || v == "true" {
		checksummed, err := s.checksumPlan(r.Context(), d, sides, resp.Plan, total)
		if err != nil {
			status := http.StatusUnprocessableEntity
			var ie internalError
			switch {
			case errors.As(err, &ie):
				status = http.StatusInternalServerError
			case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
				status = statusClientClosedRequest
				err = errors.New("checksum enumeration cancelled: client disconnected")
			}
			writeError(w, status, err.Error())
			return
		}
		resp.Plan = checksummed
		resp.Checksummed = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// internalError marks checksum failures that are the server's fault (500)
// rather than the request's (422).
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// checksumPlan realizes the generator and enumerates every shard to fill the
// verification checksums. It returns a copy — the cached plan stays
// checksum-free so serving it never races with an enumeration pass.
func (s *Service) checksumPlan(ctx context.Context, d *kron.Design, sides splitSides, plan []kron.ShardInfo, total int64) ([]kron.ShardInfo, error) {
	if total > maxChecksumEdges {
		return nil, fmt.Errorf("plan has %d edges, over the %d-edge checksum enumeration bound; fetch without checksums and verify shards individually",
			total, maxChecksumEdges)
	}
	if err := s.manager.checkSides(sides); err != nil {
		return nil, err
	}
	g, err := kron.NewGenerator(d, sides.split)
	if err != nil {
		return nil, internalError{err}
	}
	out := make([]kron.ShardInfo, len(plan))
	copy(out, plan)
	np := min(runtime.GOMAXPROCS(0), s.cfg.MaxWorkers)
	if err := g.ChecksumPlan(ctx, out, np); err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, internalError{err}
	}
	s.metrics.PlansChecksummed.Add(1)
	return out, nil
}
