package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/service"
)

// keptBody serves one smoke-sized job in the given format and returns its
// body bytes and the job's status.
func keptBody(t *testing.T, format string) ([]byte, *serveBench, service.JobStatus) {
	t.Helper()
	ctx := context.Background()
	bb, err := prepareServe(format)(newRand(1), true)
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*serveBench)
	srv, err := startServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b.srv = srv
	t.Cleanup(b.tearDown)
	var body bytes.Buffer
	_, sum, err := b.serve(ctx, b.warmUp, nil, &body)
	if err != nil {
		t.Fatalf("serving a %s job: %v", format, err)
	}
	st := service.JobStatus{State: service.StateDone, GeneratedEdges: b.edges, StreamedEdges: b.edges, Checksum: &sum}
	return body.Bytes(), b, st
}

// verify is the check an op applies to a body: decode it, then reconcile
// it with the predicted edge count and the job's status.
func verify(format string, body []byte, b *serveBench, st service.JobStatus) error {
	got, err := decodeStream(context.Background(), format, bytes.NewReader(body), b.vertices, nil)
	if err != nil {
		return err
	}
	return reconcile(got, b.edges, st)
}

func TestVerifierFailsFlippedDeltaByte(t *testing.T) {
	body, b, st := keptBody(t, formatDelta)
	if err := verify(formatDelta, body, b, st); err != nil {
		t.Fatalf("intact delta stream: %v", err)
	}
	for _, at := range []int{len(body) / 3, len(body) / 2, len(body) - 12} {
		bad := slices.Clone(body)
		bad[at] ^= 0x40
		if err := verify(formatDelta, bad, b, st); err == nil {
			t.Errorf("delta stream with byte %d of %d flipped verified", at, len(body))
		}
	}
}

func TestVerifierFailsTruncatedTSV(t *testing.T) {
	body, b, st := keptBody(t, formatTSV)
	if err := verify(formatTSV, body, b, st); err != nil {
		t.Fatalf("intact TSV stream: %v", err)
	}
	// Cut at a line end, so every line left parses: only the count and the
	// missing end comment can tell.
	cut := bytes.LastIndexByte(body[:len(body)/2], '\n') + 1
	if err := verify(formatTSV, body[:cut], b, st); err == nil {
		t.Errorf("TSV stream truncated to %d of %d bytes verified", cut, len(body))
	}
	if err := verify(formatTSV, body[:len(body)-5], b, st); err == nil {
		t.Errorf("TSV stream missing its last bytes verified")
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), w, runConfig{seed: 7, measure: 200 * time.Millisecond, traced: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Metrics["fail_frac"].Value != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d failures=%q",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			var out bytes.Buffer
			if err := writeSummary(&out, res); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, w := range workloads {
		a, errA := w.prepare(newRand(3), true)
		b, errB := w.prepare(newRand(3), true)
		c, errC := w.prepare(newRand(4), true)
		if errA != nil || errB != nil || errC != nil {
			t.Fatal(errA, errB, errC)
		}
		ja, _ := json.Marshal(a.inputs())
		jb, _ := json.Marshal(b.inputs())
		jc, _ := json.Marshal(c.inputs())
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: seed 3 drew different inputs twice", name)
		}
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 3 and 4 drew the same inputs", name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, pct, beyond := tail(xs); v != 90 || pct != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = %v at p%v with %d beyond, want 90 at p90 with 10", v, pct, beyond)
	}
	if v, pct, beyond := tail(xs[:5]); v != 100 || pct != 100 || beyond != 0 {
		t.Errorf("tail of 5 samples = %v at p%v with %d beyond, want the maximum", v, pct, beyond)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", w.Name, w.Why, workloads[w.Name].why)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\nprogram        %v", spec.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(spec.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", spec.PerLayer, perLayerMetrics)
	}
}
