package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/kron"
)

// The tentpole service contract: K shard jobs of one plan, validated one by
// one, accumulate into the design-level merged report — identical to the
// verdict an unsharded job's validation gives — with correct pending-shard
// accounting along the way and the merged report cached on every sibling.
func TestServiceShardValidationMerges(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5, 9}, Loop: "hub"}
	const K = 3

	jobs := make([]JobStatus, K)
	for i := 0; i < K; i++ {
		jobs[i] = decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
			DesignRequest: design, Workers: 2, Split: 2, Shards: K, Shard: i, Sink: SinkDiscard,
		}))
	}
	for i := 0; i < K; i++ {
		waitForState(t, ts.URL, jobs[i].ID, StateDone)
	}

	// Shards 0..K-2: partial responses listing exactly the not-yet-validated
	// indices, reconciled against plan and job checksum, no merge yet.
	for i := 0; i < K-1; i++ {
		v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+jobs[i].ID, http.StatusOK)
		if !v.EdgesMatchPlan {
			t.Fatalf("shard %d: measured %d edges, plan %d", i, v.MeasuredEdges, v.Shard.Edges)
		}
		if v.ChecksumMatchesJob == nil || !*v.ChecksumMatchesJob {
			t.Fatalf("shard %d: checksum did not reconcile with the generation job", i)
		}
		if v.Merged != nil {
			t.Fatalf("shard %d: merged report before the plan was complete", i)
		}
		if want := K - 1 - i; len(v.PendingShards) != want {
			t.Fatalf("shard %d: pending %v, want %d entries", i, v.PendingShards, want)
		}
	}

	// The last shard's validation completes the plan: its response carries
	// the merged design-level report.
	last := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+jobs[K-1].ID, http.StatusOK)
	if last.Merged == nil {
		t.Fatalf("last shard did not trigger the merge: %+v", last)
	}
	if !last.Merged.ExactAgreement {
		t.Fatalf("merged report disagrees: %+v", last.Merged.Mismatches)
	}
	if len(last.PendingShards) != 0 {
		t.Fatalf("merged response still lists pending shards: %v", last.PendingShards)
	}
	if got := s.Metrics().ShardValidationsRun.Load(); got != K {
		t.Fatalf("shard validations run = %d, want %d", got, K)
	}
	if got := s.Metrics().ShardValidationsMerged.Load(); got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}

	// The merged verdict must equal the unsharded validation of the same
	// design (served from a separate unsharded job).
	full := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 2, Split: 2, Sink: SinkDiscard,
	}))
	waitForState(t, ts.URL, full.ID, StateDone)
	want := getJSON[ValidationResponse](t, ts.URL+"/v1/validate/"+full.ID, http.StatusOK)
	m := last.Merged
	if m.MeasuredVertices != want.MeasuredVertices || m.MeasuredEdges != want.MeasuredEdges ||
		m.MeasuredTriangles != want.MeasuredTriangles || m.ExactAgreement != want.ExactAgreement {
		t.Fatalf("merged %+v != unsharded %+v", m, want)
	}

	// Every earlier sibling now serves the cached merged report too, without
	// re-running anything.
	v0 := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+jobs[0].ID, http.StatusOK)
	if v0.Merged == nil || v0.Merged.MeasuredTriangles != m.MeasuredTriangles {
		t.Fatalf("sibling did not serve the cached merged report: %+v", v0)
	}
	if v0.Merged.JobID != jobs[0].ID {
		t.Fatalf("cached merged report carries job %s, want the sibling's own id %s", v0.Merged.JobID, jobs[0].ID)
	}
	if got := s.Metrics().ShardValidationsRun.Load(); got != K {
		t.Fatalf("sibling re-read re-ran a shard validation (%d runs)", got)
	}
}

// A client that disconnects during a shard validation gets 499, nothing is
// cached, and a later live request still validates the shard cleanly — the
// unsharded cancel contract extended to the shard path.
func TestServiceShardValidationCancelled(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5, 9}, Loop: "hub"}
	job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 2, Split: 2, Shards: 2, Shard: 0, Sink: SinkDiscard,
	}))
	waitForState(t, ts.URL, job.ID, StateDone)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/validate/"+job.ID, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled shard validate: status %d, want %d (body %s)",
			rec.Code, statusClientClosedRequest, tail(rec.Body.String(), 200))
	}
	if got := s.Metrics().ShardValidationsRun.Load(); got != 0 {
		t.Fatalf("cancelled shard validation counted as run (%d)", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/validate/"+job.ID, nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up shard validate: status %d: %s", rec.Code, tail(rec.Body.String(), 200))
	}
}

// Validating a shard job whose sibling shard was generated by a second
// (retried) job must pick the newest done job per shard index and still
// merge; a pending, never-validated duplicate does not double-count.
func TestServiceShardValidationRetriedSibling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "leaf"}
	j0 := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 1, Shards: 2, Shard: 0, Sink: SinkDiscard,
	}))
	// Shard 1 runs twice, as a coordinator retrying a flaky replica would.
	j1a := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 1, Shards: 2, Shard: 1, Sink: SinkDiscard,
	}))
	j1b := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 1, Shards: 2, Shard: 1, Sink: SinkDiscard,
	}))
	for _, j := range []JobStatus{j0, j1a, j1b} {
		waitForState(t, ts.URL, j.ID, StateDone)
	}
	if v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+j0.ID, http.StatusOK); v.Merged != nil {
		t.Fatalf("merge without shard 1 validated: %+v", v)
	}
	v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+j1b.ID, http.StatusOK)
	if v.Merged == nil || !v.Merged.ExactAgreement {
		t.Fatalf("retried-sibling merge failed: %+v", v)
	}
}

// submitDiscard submits a discard job of design (split after its first
// factor, one worker) as shard of a shards-shard plan — unsharded when
// shards is 0 — and waits until it is done.
func submitDiscard(t *testing.T, base string, design DesignRequest, shards, shard int) string {
	t.Helper()
	job := decodeBody[JobStatus](t, postJSON(t, base+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 1, Split: 1, Shards: shards, Shard: shard, Sink: SinkDiscard,
	}))
	waitForState(t, base, job.ID, StateDone)
	return job.ID
}

// hasFragment reports whether job id's cached slice measurement still holds
// its CSR fragment: rebuilt from its exported fields alone, the measurement
// is the same one without a fragment, so any difference is the fragment.
func hasFragment(t *testing.T, s *Service, id string) bool {
	t.Helper()
	j, ok := s.manager.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	j.valMu.Lock()
	sv := j.measured
	j.valMu.Unlock()
	if sv == nil {
		t.Fatalf("job %s caches no measurement", id)
	}
	return !reflect.DeepEqual(*sv, kron.ShardValidation{
		Design: sv.Design, Split: sv.Split, Workers: sv.Workers,
		Shard: sv.Shard, MeasuredEdges: sv.MeasuredEdges, Checksum: sv.Checksum,
	})
}

// An unsharded job is validated as the only slice of its design's
// one-shard plan, yet keeps its unsharded face — no shard in its status,
// trace or stream header, and no shard counter moves — and its validation
// reconciles the regenerated slice against the job's generation checksum.
func TestServiceUnshardedValidationChecksum(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{DesignRequest: design, Workers: 2}))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(string(raw), "\n"); strings.Contains(header, "shard") {
		t.Fatalf("unsharded stream header names a shard: %q", header)
	}
	if st := waitForState(t, ts.URL, job.ID, StateDone); st.Shard != nil {
		t.Fatalf("unsharded job status carries shard %+v", *st.Shard)
	}
	if tr, _ := getTrace(t, ts.URL, job.ID); indexOf(tr, PhaseShardPlanned) >= 0 {
		t.Fatalf("unsharded trace %v records %q", phases(tr), PhaseShardPlanned)
	}

	v := getJSON[ValidationResponse](t, ts.URL+"/v1/validate/"+job.ID, http.StatusOK)
	if !v.ExactAgreement || v.JobID != job.ID {
		t.Fatalf("unsharded validation: %+v", v)
	}
	if v.ChecksumMatchesJob == nil || !*v.ChecksumMatchesJob {
		t.Fatalf("validation checksum did not reconcile with the job's: %+v", v)
	}
	j, _ := s.manager.Get(job.ID)
	j.mu.Lock()
	j.checksum ^= 1
	j.mu.Unlock()
	v = getJSON[ValidationResponse](t, ts.URL+"/v1/validate/"+job.ID, http.StatusOK)
	if v.ChecksumMatchesJob == nil || *v.ChecksumMatchesJob {
		t.Fatalf("altered job checksum still reconciles: %+v", v)
	}
	m := s.Metrics()
	if runs, merges := m.ShardValidationsRun.Load(), m.ShardValidationsMerged.Load(); runs != 0 || merges != 0 {
		t.Fatalf("unsharded validation moved the shard counters: %d runs, %d merges", runs, merges)
	}
	if got := m.ValidationsRun.Load(); got != 1 {
		t.Fatalf("validations run = %d, want 1", got)
	}
}

// Once a plan's merged report is cached, no job of the plan keeps its CSR
// fragment: not the slices the merge used, not a duplicate measured before
// the merge, and not an unsharded job, whose plan merges at once.
func TestServiceValidationReleasesFragments(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	j0 := submitDiscard(t, ts.URL, design, 2, 0)
	j1a := submitDiscard(t, ts.URL, design, 2, 1)
	j1b := submitDiscard(t, ts.URL, design, 2, 1)
	for _, id := range []string{j1a, j1b} {
		v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+id, http.StatusOK)
		if v.Merged != nil || !reflect.DeepEqual(v.PendingShards, []int{0}) {
			t.Fatalf("%s: %+v, want shard 0 pending", id, v)
		}
		if !hasFragment(t, s, id) {
			t.Fatalf("%s: pending measurement holds no fragment to merge", id)
		}
	}
	if v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+j0, http.StatusOK); v.Merged == nil || !v.Merged.ExactAgreement {
		t.Fatalf("plan did not merge: %+v", v)
	}
	u := submitDiscard(t, ts.URL, design, 0, 0)
	if v := getJSON[ValidationResponse](t, ts.URL+"/v1/validate/"+u, http.StatusOK); !v.ExactAgreement {
		t.Fatalf("unsharded validation: %+v", v)
	}
	for _, id := range []string{j0, j1a, j1b, u} {
		if hasFragment(t, s, id) {
			t.Errorf("%s keeps its fragment after its plan merged", id)
		}
	}
}

// A shard job generated and validated after its plan merged cannot merge
// again — its siblings' fragments are gone — so it measures and reconciles
// its own slice, then adopts the plan's merged report.
func TestServiceShardValidationAdoptsMergedReport(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "leaf"}
	for i := 0; i < 2; i++ {
		getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+submitDiscard(t, ts.URL, design, 2, i), http.StatusOK)
	}
	if got := s.Metrics().ShardValidationsMerged.Load(); got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}
	late := submitDiscard(t, ts.URL, design, 2, 1)
	v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+late, http.StatusOK)
	if v.Merged == nil || !v.Merged.ExactAgreement || v.Merged.JobID != late {
		t.Fatalf("late shard did not adopt the merged report: %+v", v)
	}
	if !v.EdgesMatchPlan || v.ChecksumMatchesJob == nil || !*v.ChecksumMatchesJob {
		t.Fatalf("late shard's own slice did not reconcile: %+v", v)
	}
	m := s.Metrics()
	if merges, runs := m.ShardValidationsMerged.Load(), m.ShardValidationsRun.Load(); merges != 1 || runs != 3 {
		t.Fatalf("merges = %d and shard validations = %d, want 1 and 3", merges, runs)
	}
	if hasFragment(t, s, late) {
		t.Fatal("adopting job keeps its fragment")
	}
}

// Validating an older duplicate completes with its own measurement: the
// job being validated measures its own slice even when a newer done job
// generated the same one. For a shard job the plan then merges; for two
// unsharded jobs of one design and split, the older merges its one-shard
// plan and the newer adopts that report.
func TestServiceValidateOlderDuplicate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	j0 := submitDiscard(t, ts.URL, design, 2, 0)
	j1a := submitDiscard(t, ts.URL, design, 2, 1)
	submitDiscard(t, ts.URL, design, 2, 1) // a newer duplicate of j1a, never validated
	if v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+j0, http.StatusOK); !reflect.DeepEqual(v.PendingShards, []int{1}) {
		t.Fatalf("shard 0: %+v, want shard 1 pending", v)
	}
	v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+j1a, http.StatusOK)
	if v.Merged == nil || !v.Merged.ExactAgreement || len(v.PendingShards) != 0 {
		t.Fatalf("older duplicate did not complete the plan: %+v", v)
	}

	older := submitDiscard(t, ts.URL, design, 0, 0)
	newer := submitDiscard(t, ts.URL, design, 0, 0)
	for _, id := range []string{older, newer} {
		u := getJSON[ValidationResponse](t, ts.URL+"/v1/validate/"+id, http.StatusOK)
		if !u.ExactAgreement || u.JobID != id || u.ChecksumMatchesJob == nil || !*u.ChecksumMatchesJob {
			t.Fatalf("unsharded %s: %+v", id, u)
		}
	}
	// One merge for the shard plan, one for the one-shard plan; the newer
	// unsharded job adopted.
	if got := s.Metrics().ValidationsRun.Load(); got != 2 {
		t.Fatalf("validations run = %d, want 2", got)
	}
}

// Validations of one plan's jobs may cross: each reads its siblings'
// measurements and reports while they measure, merge and release. Run
// concurrently (and under -race), every request must succeed, and once a
// final sequential pass completes the plan every job serves the merged
// report and none keeps a fragment.
func TestServiceConcurrentPlanValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	var sharded, unsharded []string
	for i := 0; i < 3; i++ {
		sharded = append(sharded, submitDiscard(t, ts.URL, design, 3, i), submitDiscard(t, ts.URL, design, 3, i))
		unsharded = append(unsharded, submitDiscard(t, ts.URL, design, 0, 0))
	}
	all := append(append([]string(nil), sharded...), unsharded...)
	errs := make(chan error, 2*len(all))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, id := range all {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/validate/" + id)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", id, resp.StatusCode, body)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, id := range sharded {
		if v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+id, http.StatusOK); v.Merged == nil || !v.Merged.ExactAgreement {
			t.Errorf("%s: %+v, want the merged report", id, v)
		}
	}
	for _, id := range unsharded {
		if v := getJSON[ValidationResponse](t, ts.URL+"/v1/validate/"+id, http.StatusOK); !v.ExactAgreement {
			t.Errorf("%s: %+v", id, v)
		}
	}
	for _, id := range all {
		if hasFragment(t, s, id) {
			t.Errorf("%s keeps its fragment after its plan merged", id)
		}
	}
}
