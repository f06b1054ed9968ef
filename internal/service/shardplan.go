package service

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/kron"
)

// ShardPlanResponse is the JSON rendering of a deterministic shard plan —
// what a coordinator (or each of N replicas behind a dumb load balancer)
// fetches to partition one design across independent kronserve processes.
type ShardPlanResponse struct {
	Design DesignRequest `json:"design"`
	Hash   string        `json:"hash"`
	// Split is the resolved split point nb; submit shard jobs with exactly
	// this value (or 0 if the plan itself was fetched with the default) so
	// every replica prices the same B ⊗ C decomposition.
	Split      int              `json:"split"`
	Shards     int              `json:"shards"`
	TotalEdges int64            `json:"totalEdges"`
	BNNZ       int64            `json:"bnnz"`
	CNNZ       int64            `json:"cnnz"`
	Plan       []kron.ShardInfo `json:"plan"`
}

// handleShardPlan serves GET /v1/designs/{hash}/shardplan?shards=K[&split=nb].
// The hash comes from POST /v1/designs (or any job status); an unknown hash
// is 404 — re-POST the design to re-register it. The plan is closed form,
// computed on every request like an unsharded job's one-shard plan, and
// carries no checksums: each shard job reports its own in its status.
func (s *Service) handleShardPlan(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	req, ok := s.hashes.get(hash)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown design hash %q; POST the design to /v1/designs first", hash))
		return
	}
	q := r.URL.Query()
	if q.Has("checksums") {
		writeError(w, http.StatusBadRequest,
			"the checksums parameter is retired: plans carry no checksums, and each shard job reports its shard's checksum in its status's checksum field")
		return
	}
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
	// bounds, and nothing is realized here.
	sides, err := s.manager.resolveSplit(d, split)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	plan, err := kron.PlanShards(d, sides.split, shards)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var total int64
	for _, sh := range plan {
		total += sh.Edges
	}
	writeJSON(w, http.StatusOK, ShardPlanResponse{
		Design:     req,
		Hash:       hash,
		Split:      sides.split,
		Shards:     shards,
		TotalEdges: total,
		BNNZ:       sides.bnnz.Int64(),
		CNNZ:       sides.cnnz.Int64(),
		Plan:       plan,
	})
}
