package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/kron"
)

// TestStreamWriterFailureReturnsError is the regression test for the
// bodyless implicit 200: when the edge writer cannot be constructed, the
// client must see a real error status (both writers buffer their header, so
// no bytes are committed yet) and the job must be cancelled. The failure is
// forced through a hand-built job whose edge count is negative — the one
// input NewMatrixMarketEdgeWriter rejects.
func TestStreamWriterFailureReturnsError(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := JobRequest{DesignRequest: DesignRequest{Points: []int{3, 4}, Loop: "hub"}}
	d, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:       "jbroken",
		req:      req,
		design:   d,
		workers:  1,
		sink:     SinkStream,
		shard:    kron.ShardInfo{Edges: -1}, // poisoned: NewMatrixMarketEdgeWriter rejects nnz < 0
		ctx:      ctx,
		cancel:   cancel,
		state:    StatePending,
		created:  time.Now(),
		attachCh: make(chan struct{}),
		done:     make(chan struct{}),
		stream:   pipeline.NewAsync(ctx, 1),
	}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodGet, "/v1/jobs/jbroken/edges?format=matrixmarket", nil)
	s.streamJob(rec, hr, j, "matrixmarket")

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("writer construction failure returned %d, want 500 (pre-fix: bodyless 200)", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "edge stream") {
		t.Fatalf("error body %q does not explain the failure", body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response content type %q, want application/json", ct)
	}
	if j.ctx.Err() == nil {
		t.Fatal("job not cancelled after its stream setup failed")
	}
}

// TestAttachAfterTerminalRejected is the regression test for streaming a
// terminal job: attaching must fail with 410 Gone instead of emitting a
// MatrixMarket header that declares totalEdges entries followed by none.
func TestAttachAfterTerminalRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}
	job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{DesignRequest: design}))

	// Cancel the pending job before any consumer attaches, and wait for the
	// run loop to finish.
	httpDelete(t, ts.URL+"/v1/jobs/"+job.ID)
	st := waitForTerminal(t, ts.URL, job.ID)
	if st.State != StateCancelled {
		t.Fatalf("job is %s, want cancelled", st.State)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/edges?format=matrixmarket")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("attach to terminal job: %d, want 410 (pre-fix: 200 with a header and zero entries)", resp.StatusCode)
	}
	body := decodeBody[errorBody](t, resp)
	if !strings.Contains(body.Error, "finished") {
		t.Fatalf("410 body %q does not explain the terminal state", body.Error)
	}
	if strings.Contains(body.Error, "%%MatrixMarket") {
		t.Fatal("rejection leaked a MatrixMarket header")
	}

	// The direct API reports the sentinel so embedding programs can branch.
	j, ok := s.manager.Get(job.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if _, err := j.Attach(); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("Attach on terminal job: %v, want ErrJobTerminal", err)
	}
}

// TestStreamHeaderNamesGeneratedDesign: {5,4,3} and {3,4,5} share a
// property-cache key but generate different streams, so each stream's header
// must name its own design as generated, with the points in request order
// and the job's designHash, in the TSV comment and the MatrixMarket header
// alike.
func TestStreamHeaderNamesGeneratedDesign(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, query := range []string{"", "?format=mm"} {
		var named []string
		for _, tc := range []struct {
			design DesignRequest
			label  string
		}{
			{DesignRequest{Points: []int{5, 4, 3}, Loop: "hub"}, "hub|5,4,3"},
			{DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}, "hub|3,4,5"},
		} {
			raw, _, st := streamJobEdges(t, ts.URL, tc.design, query, nil)
			var header string
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.Contains(line, "kronserve job") {
					header = line
					break
				}
			}
			want := fmt.Sprintf(" design %s designHash %s ", tc.label, st.DesignHash)
			if !strings.Contains(header, want) {
				t.Errorf("format %q: header %q does not contain %q", query, header, want)
			}
			_, after, _ := strings.Cut(header, " design ")
			named = append(named, after)
		}
		if named[0] == named[1] {
			t.Errorf("format %q: both factor orders announce %q", query, named[0])
		}
	}
}
