package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// BenchmarkStreamServiceHandoff measures the generation→consumer hand-off
// the service streams through — submit a streaming job at the manager
// level, attach, drain every run — and reports edges/s plus allocs/op. The
// allocation count is the benchmark's point: the pre-pipeline hand-off
// allocated and copied one slice per batch (edges/BatchSize allocations per
// job); a run is sent by value and points at the generator's shared block,
// so allocs/op stays flat as the job's edge count grows.
func BenchmarkStreamServiceHandoff(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	req := JobRequest{
		DesignRequest: DesignRequest{Points: []int{3, 4, 5, 9, 16}, Loop: "hub"},
		Workers:       min(runtime.GOMAXPROCS(0), DefaultConfig().MaxWorkers),
	}
	var edges int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.manager.Submit(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := j.Attach()
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for run := range ch {
			n += int64(run.Len())
		}
		<-j.done
		if st := j.Status(); st.State != StateDone || n != st.TotalEdges {
			b.Fatalf("job ended %s with %d/%d edges delivered", st.State, n, st.TotalEdges)
		}
		edges += n
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkStreamServiceThroughput drives the whole service hot path once
// per iteration — submit a streaming job over HTTP, drain its chunked TSV
// edge stream into io.Discard — and reports end-to-end streamed edges/s.
// This is the consumer-facing counterpart of the generator-only stream
// benchmarks at the repo root.
func BenchmarkStreamServiceThroughput(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	req := JobRequest{
		DesignRequest: DesignRequest{Points: []int{3, 4, 5, 9, 16}, Loop: "hub"},
		Workers:       min(runtime.GOMAXPROCS(0), DefaultConfig().MaxWorkers),
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var edges int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("POST /v1/jobs: %d", resp.StatusCode)
		}
		stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/edges")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, stream.Body); err != nil {
			b.Fatal(err)
		}
		stream.Body.Close()
		j, ok := s.manager.Get(st.ID)
		if !ok {
			b.Fatalf("job %s vanished", st.ID)
		}
		<-j.done
		if got := j.Status(); got.State != StateDone || got.StreamedEdges != got.TotalEdges {
			b.Fatalf("job ended %s with %d/%d edges streamed", got.State, got.StreamedEdges, got.TotalEdges)
		}
		edges += st.TotalEdges
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}
