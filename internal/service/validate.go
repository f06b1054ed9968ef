package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/kron"
)

// ValidationResponse is the JSON rendering of the paper's predicted-vs-
// measured comparison for one finished job's design.
type ValidationResponse struct {
	JobID   string        `json:"jobId"`
	Design  DesignRequest `json:"design"`
	Workers int           `json:"workers"`

	PredictedVertices  string `json:"predictedVertices"`
	PredictedEdges     string `json:"predictedEdges"`
	PredictedTriangles string `json:"predictedTriangles"`

	MeasuredVertices  int64 `json:"measuredVertices"`
	MeasuredEdges     int64 `json:"measuredEdges"`
	MeasuredTriangles int64 `json:"measuredTriangles"`

	DegreePointsPredicted int `json:"degreePointsPredicted"`
	DegreePointsMeasured  int `json:"degreePointsMeasured"`

	ExactAgreement bool     `json:"exactAgreement"`
	Mismatches     []string `json:"mismatches,omitempty"`

	// ChecksumMatchesJob reconciles an unsharded job's validation pass
	// against the job's generation checksum: regeneration produced
	// bit-identical content to what was served. Absent when the job
	// recorded no checksum, and in a shard response's merged report, whose
	// top level carries the shard's own reconciliation.
	ChecksumMatchesJob *bool `json:"checksumMatchesJob,omitempty"`
}

// ShardValidationResponse is the JSON rendering of a sharded job's partial
// validation: the shard's in-flight measurement reconciled against the plan's
// closed-form edge count and the generation pass's content checksum, plus —
// once every sibling shard of the plan has been validated — the design-level
// merged report. Until then PendingShards lists what is still missing, so a
// coordinator can drive K replicas to a complete validation by polling the
// same endpoint it polls for job status.
type ShardValidationResponse struct {
	JobID   string        `json:"jobId"`
	Design  DesignRequest `json:"design"`
	Workers int           `json:"workers"`
	Shard   ShardStatus   `json:"shard"`

	// MeasuredEdges and Checksum are the validation pass's own in-flight
	// folds over the regenerated shard.
	MeasuredEdges int64 `json:"measuredEdges"`
	Checksum      int64 `json:"checksum"`

	// EdgesMatchPlan reports MeasuredEdges == the plan's closed-form count.
	EdgesMatchPlan bool `json:"edgesMatchPlan"`
	// ChecksumMatchesJob reconciles the validation checksum against the
	// generation job's recorded fold — regeneration produced bit-identical
	// content to what was served; absent when the job recorded no checksum
	// (e.g. it predates the fold or generation failed).
	ChecksumMatchesJob *bool `json:"checksumMatchesJob,omitempty"`

	// PendingShards lists plan indices no done job on this server has a
	// measurement for yet; empty once Merged is present.
	PendingShards []int `json:"pendingShards,omitempty"`
	// Merged is the design-level predicted-vs-measured report, present once
	// every slice of the plan was measured and the fragments merged.
	Merged *ValidationResponse `json:"merged,omitempty"`
}

// handleValidate validates a finished job the way the paper validates a
// graph that many processors generated without communicating. The job's
// plan slice is regenerated and measured (cached on the job), reconciled
// against the job's generation checksum, and merged with the sibling
// slices' measurements into the design-level exact report once the whole
// plan is measured; merging checks every slice against the plan. An
// unsharded job is the only slice of its design's one-shard plan, so its
// report is complete at once and served in the ValidationResponse shape; a
// shard job is answered with its slice's reconciliation and, once the plan
// is complete, the merged report.
func (s *Service) handleValidate(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if st := j.Status(); st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; only done jobs can be validated", j.ID(), st.State))
		return
	}
	// The realization bound is design-level: a plan's fragments merge into
	// one design-sized CSR, so admitting a slice of an over-bound design
	// would only defer the refusal to the merge.
	if edges := j.design.NumEdges(); !edges.IsInt64() || edges.Int64() > kron.MaxValidationEdges {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("job %s's design has %s edges, over the %d-edge validation realization bound; its design-side properties remain exact",
				j.ID(), edges, int64(kron.MaxValidationEdges)))
		return
	}
	sv, merged, pending, err := s.validation(r.Context(), j)
	if err != nil {
		// Only an actual cancellation error counts as "client gone": a
		// genuine validation failure must keep its 500 + message even when
		// the impatient client has meanwhile disconnected. The status code
		// is then a log artifact (499 is nginx's "client closed request").
		if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
			writeError(w, statusClientClosedRequest, "validation cancelled: client disconnected")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var checksumMatches *bool
	j.mu.Lock()
	if j.hasChecksum {
		match := sv.Checksum == j.checksum
		checksumMatches = &match
	}
	j.mu.Unlock()
	if !j.sharded() {
		resp := *merged
		resp.ChecksumMatchesJob = checksumMatches
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusOK, ShardValidationResponse{
		JobID:              j.ID(),
		Design:             j.req.DesignRequest,
		Workers:            sv.Workers,
		Shard:              shardStatus(sv.Shard),
		MeasuredEdges:      sv.MeasuredEdges,
		Checksum:           sv.Checksum,
		EdgesMatchPlan:     sv.MeasuredEdges == sv.Shard.Edges,
		ChecksumMatchesJob: checksumMatches,
		PendingShards:      pending,
		Merged:             merged,
	})
}

// validation returns j's measurement of its plan slice, computing it on
// first request, and the plan's merged report: the one cached on j, one a
// sibling cached (adopted, since the plan merged already), or a fresh merge
// once every slice of the plan has a measurement. Until then merged is nil
// and pending lists the slices still unmeasured. The request context rides
// through the whole measurement: a client that disconnects mid-validation
// stops the generation passes and the triangle bands instead of burning
// cores on an answer nobody will read, and nothing partial is cached.
func (s *Service) validation(ctx context.Context, j *Job) (sv *kron.ShardValidation, merged *ValidationResponse, pending []int, err error) {
	j.valMu.Lock()
	sv, merged = j.measured, j.validation
	j.valMu.Unlock()
	if sv == nil {
		// Computed without holding valMu: sibling shards must be able to
		// validate concurrently (that is the point of sharding), and the
		// merge step below reads siblings' caches — holding one job's lock
		// while taking another's would deadlock two crossing requests. The
		// race on first-compute costs at most a duplicated measurement; the
		// results are deterministic, so either winner is correct.
		if sv, err = kron.ValidateShard(ctx, j.design, j.split, j.workers, j.shard); err != nil {
			return nil, nil, nil, err
		}
		if j.sharded() {
			s.metrics.ShardValidationsRun.Add(1)
		}
		j.valMu.Lock()
		if j.measured == nil {
			j.measured = sv
		}
		if merged = j.validation; merged != nil {
			j.measured = withoutFragment(j.measured)
		}
		j.valMu.Unlock()
	}
	if merged != nil {
		return sv, merged, nil, nil
	}
	var reports []*kron.ShardValidation
	reports, merged, pending = s.manager.planMeasurements(j, sv)
	if merged == nil {
		if len(pending) > 0 {
			return sv, nil, pending, nil
		}
		rep, err := kron.MergeValidation(ctx, reports, j.workers)
		if err != nil {
			return nil, nil, nil, err
		}
		if j.sharded() {
			s.metrics.ShardValidationsMerged.Add(1)
		}
		s.metrics.ValidationsRun.Add(1)
		if rep.ExactAgreement {
			s.metrics.ValidationsExact.Add(1)
		}
		merged = validationResponse(j, rep)
		// Cache the merged report on every job of the plan (first writer
		// wins), so any of them serves the design-level verdict from then
		// on, and release their fragments.
		for _, sib := range s.manager.planMembers(j) {
			sib.valMu.Lock()
			sib.settleLocked(merged)
			sib.valMu.Unlock()
		}
	}
	j.valMu.Lock()
	merged = j.settleLocked(merged)
	j.valMu.Unlock()
	return sv, merged, nil, nil
}

// settleLocked caches the plan's merged report on j under j's own id,
// unless one is cached already, and releases j's CSR fragment: once its
// plan merged, a job keeps only the exported fields of its measurement. It
// returns j's cached report. The caller holds j.valMu.
func (j *Job) settleLocked(merged *ValidationResponse) *ValidationResponse {
	if j.validation == nil {
		own := *merged
		own.JobID = j.id
		j.validation = &own
	}
	if j.measured != nil {
		j.measured = withoutFragment(j.measured)
	}
	return j.validation
}

// withoutFragment rebuilds a slice measurement from its exported fields,
// which leaves out the mergeable CSR fragment.
func withoutFragment(sv *kron.ShardValidation) *kron.ShardValidation {
	return &kron.ShardValidation{
		Design:        sv.Design,
		Split:         sv.Split,
		Workers:       sv.Workers,
		Shard:         sv.Shard,
		MeasuredEdges: sv.MeasuredEdges,
		Checksum:      sv.Checksum,
	}
}

// validationResponse renders a merged report for job j.
func validationResponse(j *Job, rep *kron.ValidationReport) *ValidationResponse {
	return &ValidationResponse{
		JobID:                 j.ID(),
		Design:                j.req.DesignRequest,
		Workers:               rep.Workers,
		PredictedVertices:     rep.PredictedVertices.String(),
		PredictedEdges:        rep.PredictedEdges.String(),
		PredictedTriangles:    rep.PredictedTriangles.String(),
		MeasuredVertices:      rep.MeasuredVertices,
		MeasuredEdges:         rep.MeasuredEdges,
		MeasuredTriangles:     rep.MeasuredTriangles,
		DegreePointsPredicted: rep.PredictedDegrees.Len(),
		DegreePointsMeasured:  rep.MeasuredDegrees.Len(),
		ExactAgreement:        rep.ExactAgreement,
		Mismatches:            rep.Mismatches,
	}
}

// planMembers returns every done job generating a slice of the same plan as
// j — same design hash, split, and shard count, where an unsharded job's
// plan is its design's one-shard plan — j included, in creation order.
func (m *Manager) planMembers(j *Job) []*Job {
	hash := j.req.DesignRequest.Hash()
	var out []*Job
	for _, cand := range m.List() {
		if cand.shard.Shards != j.shard.Shards || cand.split != j.split ||
			cand.req.DesignRequest.Hash() != hash {
			continue
		}
		cand.mu.Lock()
		done := cand.state == StateDone
		cand.mu.Unlock()
		if done {
			out = append(out, cand)
		}
	}
	return out
}

// planMeasurements gathers the measurements covering j's plan: own for j's
// slice — the job being validated measures its own index, even when a newer
// duplicate exists — and for every other slice the newest measured done
// job's. When a plan member already caches the merged report, the plan was
// merged and its fragments released, so that report is returned to adopt
// instead. Otherwise it returns the reports when every slice has one, or
// the sorted slice indices still missing.
func (m *Manager) planMeasurements(j *Job, own *kron.ShardValidation) ([]*kron.ShardValidation, *ValidationResponse, []int) {
	reports := make([]*kron.ShardValidation, j.shard.Shards)
	for _, sib := range m.planMembers(j) {
		sib.valMu.Lock()
		sv, merged := sib.measured, sib.validation
		sib.valMu.Unlock()
		if merged != nil {
			return nil, merged, nil
		}
		if sv != nil {
			reports[sib.shard.Shard] = sv // creation order: the newest wins
		}
	}
	reports[j.shard.Shard] = own
	var pending []int
	for i, sv := range reports {
		if sv == nil {
			pending = append(pending, i)
		}
	}
	if len(pending) > 0 {
		return nil, nil, pending
	}
	return reports, nil, nil
}
