package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graphio"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/kron"
)

func getJSON[T any](t *testing.T, url string, wantStatus int) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	return decodeBody[T](t, resp)
}

// TestServiceShardAPIEndToEnd drives the coordinator-free deployment recipe
// over HTTP: POST the design to learn its hash, fetch the K-shard plan, run
// one shard job per shard as if K replicas each took one, and reassemble the
// streamed TSV bodies into the full graph — which must equal the serial
// Kronecker realization entry-for-entry, with each body's edge count
// matching its shard's closed-form plan entry and each job's checksum
// matching CountShard's over the same shard.
func TestServiceShardAPIEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5, 9}, Loop: "hub"}
	const shards = 3

	props := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", design))
	if props.Hash == "" || props.Hash != design.Hash() {
		t.Fatalf("designs endpoint hash %q, want %q", props.Hash, design.Hash())
	}

	plan := getJSON[ShardPlanResponse](t,
		fmt.Sprintf("%s/v1/designs/%s/shardplan?shards=%d", ts.URL, props.Hash, shards),
		http.StatusOK)
	if len(plan.Plan) != shards || plan.Shards != shards {
		t.Fatalf("plan has %d shards, want %d", len(plan.Plan), shards)
	}
	d, err := design.Build()
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalEdges != d.NumEdges().Int64() {
		t.Fatalf("plan totalEdges %d, design says %s", plan.TotalEdges, d.NumEdges())
	}
	// A test-side generator at the plan's split: the reference each shard
	// job's checksum must match.
	g, err := kron.NewGenerator(d, plan.Split)
	if err != nil {
		t.Fatal(err)
	}

	// K "replicas": one shard job each, submitted with the plan's split so
	// every replica prices the identical B ⊗ C decomposition.
	var tr []sparse.Triple[int64]
	var jobChecksumXOR int64
	for _, sh := range plan.Plan {
		job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
			DesignRequest: design, Workers: 2, Split: plan.Split,
			Shards: shards, Shard: sh.Shard,
		}))
		if job.Shard == nil || job.Shard.Shard != sh.Shard || job.Shard.Shards != shards {
			t.Fatalf("job %s shard status %+v, want shard %d/%d", job.ID, job.Shard, sh.Shard, shards)
		}
		if job.TotalEdges != sh.Edges {
			t.Fatalf("job %s totalEdges %d, plan shard says %d", job.ID, job.TotalEdges, sh.Edges)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/edges")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), fmt.Sprintf("shard %d/%d", sh.Shard, shards)) {
			t.Fatalf("shard %d stream header missing shard identity", sh.Shard)
		}
		if !strings.Contains(string(raw), "# end state=done") {
			t.Fatalf("shard %d stream missing done trailer; tail: %q", sh.Shard, tail(string(raw), 200))
		}
		n := int(d.NumVertices().Int64())
		body, err := graphio.ReadTSV(bytes.NewReader(raw), n, n)
		if err != nil {
			t.Fatal(err)
		}
		if int64(body.NNZ()) != sh.Edges {
			t.Fatalf("shard %d streamed %d edges, plan says %d", sh.Shard, body.NNZ(), sh.Edges)
		}
		tr = append(tr, body.Tr...)
		done := waitForState(t, ts.URL, job.ID, StateDone)
		// The job's teed checksum — folded in the same pass that streamed
		// the edges above — must reconcile against CountShard's over the
		// same shard.
		if done.Checksum == nil {
			t.Fatalf("shard %d done status carries no checksum", sh.Shard)
		}
		_, want, err := g.CountShard(context.Background(), sh, 2)
		if err != nil {
			t.Fatal(err)
		}
		if *done.Checksum != want {
			t.Fatalf("shard %d job checksum %x, CountShard says %x", sh.Shard, *done.Checksum, want)
		}
		jobChecksumXOR ^= *done.Checksum
	}

	n := int(d.NumVertices().Int64())
	got, err := sparse.NewCOO(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Realize()
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(got, want, semiring.PlusTimesInt64()) {
		t.Fatal("reassembled shard streams differ from the serial Kronecker realization")
	}

	// Completeness from job statuses alone: the XOR of the K shard jobs'
	// checksums equals the checksum an unsharded discard job reports for
	// the whole design.
	full := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 2, Split: plan.Split, Sink: SinkDiscard,
	}))
	fullDone := waitForState(t, ts.URL, full.ID, StateDone)
	if fullDone.Checksum == nil {
		t.Fatal("unsharded done job carries no checksum")
	}
	if jobChecksumXOR != *fullDone.Checksum {
		t.Fatalf("XOR of shard job checksums %x != whole-design job checksum %x",
			jobChecksumXOR, *fullDone.Checksum)
	}

	// The shard counter moved.
	var buf bytes.Buffer
	if _, err := s.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("kronserve_shard_jobs_total %d", shards); !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestServiceShardInvalidSpecs is the regression suite for bad shard
// parameters: every malformed spec must be a clean 400 (or 404 for unknown
// hashes), never a panic or a well-formed-looking empty 200.
func TestServiceShardInvalidSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	props := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", design))

	for name, req := range map[string]JobRequest{
		"negative shards":      {DesignRequest: design, Shards: -1},
		"shard == shards":      {DesignRequest: design, Shards: 2, Shard: 2},
		"shard over":           {DesignRequest: design, Shards: 2, Shard: 7},
		"negative shard":       {DesignRequest: design, Shards: 2, Shard: -1},
		"shard without shards": {DesignRequest: design, Shard: 1},
		"shards over bound":    {DesignRequest: design, Shards: 1 << 20},
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}

	base := ts.URL + "/v1/designs/" + props.Hash + "/shardplan"
	for name, url := range map[string]string{
		"zero shards":       base + "?shards=0",
		"negative shards":   base + "?shards=-3",
		"missing shards":    base,
		"garbage shards":    base + "?shards=banana",
		"bad split":         base + "?shards=2&split=99",
		"garbage split":     base + "?shards=2&split=x",
		"over bound":        base + "?shards=1048576",
		"retired checksums": base + "?shards=2&checksums=1",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", name, resp.StatusCode, body)
		}
		// The error envelope must be JSON, not a panic trace or empty body.
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: malformed error body %q", name, body)
		}
	}

	// The retired ?checksums= names itself and where the values now come
	// from: each shard job's status.
	if e := getJSON[errorBody](t, base+"?shards=2&checksums=1", http.StatusBadRequest); !strings.Contains(e.Error, "checksums parameter is retired") || !strings.Contains(e.Error, "shard job") {
		t.Errorf("retired checksums: %q, want the parameter named and the shard jobs' checksums pointed to", e.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/designs/deadbeefdeadbeef/shardplan?shards=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: %d, want 404", resp.StatusCode)
	}

	// A design of about 3.6e9 edges, far over every realization bound,
	// still plans: the plan is closed form, so nothing is realized.
	huge := DesignRequest{Points: []int{3, 4, 5, 9, 16, 25, 81}, Loop: "hub"}
	props2 := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", huge))
	plain := getJSON[ShardPlanResponse](t, ts.URL+"/v1/designs/"+props2.Hash+"/shardplan?shards=2", http.StatusOK)
	if len(plain.Plan) != 2 {
		t.Errorf("plan of a huge design: %d shards, want 2", len(plain.Plan))
	}
}

// TestServiceSideBounds drives the realization bounds at job admission, the
// one path that builds a generator. A job whose C side is over MaxCNNZ, or
// whose B side is over MaxBNNZ, is refused with 400. The plan still reports
// both sides without enforcing them: a coordinator may plan for replicas
// configured with larger bounds. {3,4,5,9} hub stores 7, 9, 11 and 19
// entries per factor.
func TestServiceSideBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCNNZ: 100, MaxBNNZ: 10})
	design := DesignRequest{Points: []int{3, 4, 5, 9}, Loop: "hub"}
	props := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", design))
	planURL := fmt.Sprintf("%s/v1/designs/%s/shardplan?shards=2", ts.URL, props.Hash)
	const (
		overC = "C side of split 1 has 1881 stored entries, over the per-worker bound 100"
		overB = "B side of split 3 has 693 stored entries, over the realization bound 10"
	)
	for _, tc := range []struct {
		name   string
		split  int
		status int
		msg    string
	}{
		{"job, C over", 1, http.StatusBadRequest, overC},
		{"job, B over", 3, http.StatusBadRequest, overB},
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{DesignRequest: design, Split: tc.split, Sink: SinkDiscard})
		status := resp.StatusCode
		if e := decodeBody[errorBody](t, resp); status != tc.status || e.Error != tc.msg {
			t.Errorf("%s: %d %q, want %d %q", tc.name, status, e.Error, tc.status, tc.msg)
		}
	}
	plain := getJSON[ShardPlanResponse](t, planURL+"&split=1", http.StatusOK)
	if plain.Split != 1 || plain.BNNZ != 7 || plain.CNNZ != 1881 {
		t.Errorf("plain plan: split %d bnnz %d cnnz %d, want 1, 7, 1881",
			plain.Split, plain.BNNZ, plain.CNNZ)
	}
}

// TestServiceShardPlanStableAcrossEviction pins plan determinism across
// the hash registry's eviction: a design evicted from a capacity-1 registry
// and re-POSTed plans to the identical ranges, so a job admitted after the
// eviction generates exactly the slice the coordinator's original plan
// promised.
func TestServiceShardPlanStableAcrossEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	a := DesignRequest{Points: []int{3, 4, 5, 9}, Loop: "hub"}
	b := DesignRequest{Points: []int{3, 4, 5}, Loop: "leaf"}
	aProps := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", a))

	planURL := fmt.Sprintf("%s/v1/designs/%s/shardplan?shards=3", ts.URL, aProps.Hash)
	first := getJSON[ShardPlanResponse](t, planURL, http.StatusOK)
	again := getJSON[ShardPlanResponse](t, planURL, http.StatusOK)
	if !reflect.DeepEqual(first.Plan, again.Plan) {
		t.Fatal("re-fetched plan differs from the first")
	}

	// POSTing design B evicts A's hash from the capacity-1 registry — the
	// documented recovery is to re-POST the design, which re-registers the
	// hash.
	bProps := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", b))
	getJSON[ShardPlanResponse](t, fmt.Sprintf("%s/v1/designs/%s/shardplan?shards=2", ts.URL, bProps.Hash), http.StatusOK)
	if resp, err := http.Get(planURL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted hash: %d, want 404", resp.StatusCode)
		}
	}
	decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", a))

	rebuilt := getJSON[ShardPlanResponse](t, planURL, http.StatusOK)
	if !reflect.DeepEqual(first.Plan, rebuilt.Plan) {
		t.Fatalf("rebuilt plan differs from evicted plan:\nfirst: %+v\nrebuilt: %+v", first.Plan, rebuilt.Plan)
	}
	if rebuilt.Split != first.Split || rebuilt.TotalEdges != first.TotalEdges {
		t.Fatalf("rebuilt plan envelope differs: %+v vs %+v", rebuilt, first)
	}

	// A shard job submitted now must carry the same range the original
	// plan promised.
	job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: a, Workers: 1, Split: first.Split, Shards: 3, Shard: 1, Sink: SinkDiscard,
	}))
	want := first.Plan[1]
	if job.Shard == nil || job.Shard.BLo != want.BLo || job.Shard.BHi != want.BHi || job.TotalEdges != want.Edges {
		t.Fatalf("post-eviction job shard %+v (totalEdges %d), plan promised %+v", job.Shard, job.TotalEdges, want)
	}
	waitForState(t, ts.URL, job.ID, StateDone)
	_ = s
}

// TestServiceShardPlanWithCachingDisabled pins the lookup-table/cache
// distinction: a negative CacheSize disables the property cache (latency
// only), but the hash registry keeps a floor of one entry, so the
// shard-plan endpoint still works right after its design is POSTed.
func TestServiceShardPlanWithCachingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	props := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", design))
	plan := getJSON[ShardPlanResponse](t, ts.URL+"/v1/designs/"+props.Hash+"/shardplan?shards=2", http.StatusOK)
	if len(plan.Plan) != 2 {
		t.Fatalf("plan with caching disabled: %+v", plan)
	}
}

// TestServiceShardJobValidatePartial checks that validating one shard of a
// plan no longer 422s: it returns that shard's reconciled measurement with
// the sibling shard listed as pending and no merged report yet. (The full
// merge flow is covered in validate_shard_test.go.)
func TestServiceShardJobValidatePartial(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		DesignRequest: design, Workers: 1, Shards: 2, Shard: 0, Sink: SinkDiscard,
	}))
	waitForState(t, ts.URL, job.ID, StateDone)
	v := getJSON[ShardValidationResponse](t, ts.URL+"/v1/validate/"+job.ID, http.StatusOK)
	if !v.EdgesMatchPlan || v.Merged != nil || len(v.PendingShards) != 1 || v.PendingShards[0] != 1 {
		t.Fatalf("partial shard validation: %+v", v)
	}
	if v.ChecksumMatchesJob == nil || !*v.ChecksumMatchesJob {
		t.Fatalf("validation checksum did not reconcile with the job's: %+v", v)
	}
}

// TestShardPlanAgreesWithGenerator cross-checks the service's closed-form
// plan against kron.PlanShards — "the plan is a pure function of (design,
// split, shards)" — and against the realized generator: every shard
// streams exactly the edges its plan entry counts.
func TestShardPlanAgreesWithGenerator(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := DesignRequest{Points: []int{4, 3, 5}, Loop: "leaf"} // non-sorted order on purpose
	props := decodeBody[DesignProperties](t, postJSON(t, ts.URL+"/v1/designs", req))
	plan := getJSON[ShardPlanResponse](t, ts.URL+"/v1/designs/"+props.Hash+"/shardplan?shards=4&split=1", http.StatusOK)

	d, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := kron.PlanShards(d, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Plan, want) {
		t.Fatalf("service plan %+v != kron.PlanShards %+v", plan.Plan, want)
	}
	g, err := kron.NewGenerator(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range plan.Plan {
		n, _, err := g.CountShard(context.Background(), sh, 2)
		if err != nil {
			t.Fatal(err)
		}
		if n != sh.Edges {
			t.Fatalf("shard %d streamed %d edges, plan says %d", sh.Shard, n, sh.Edges)
		}
	}
}
