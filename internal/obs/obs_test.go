package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100*time.Microsecond, 2, 5)
	want := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
		800 * time.Microsecond, 1600 * time.Microsecond,
	}
	if len(b) != len(want) {
		t.Fatalf("got %d bounds, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bound %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram("t_seconds", "test", ExpBuckets(time.Millisecond, 2, 3)) // 1ms, 2ms, 4ms, +Inf
	h.Observe(500 * time.Microsecond)                                          // ≤ 1ms
	h.Observe(time.Millisecond)                                                // ≤ 1ms (bounds are inclusive)
	h.Observe(3 * time.Millisecond)                                            // ≤ 4ms
	h.Observe(time.Second)                                                     // +Inf
	h.Observe(-time.Second)                                                    // clamped to 0 → ≤ 1ms

	if got := h.Count(); got != 5 {
		t.Fatalf("count %d, want 5", got)
	}
	var out strings.Builder
	if err := h.Render(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`t_seconds_bucket{le="0.001"} 3`,
		`t_seconds_bucket{le="0.002"} 3`,
		`t_seconds_bucket{le="0.004"} 4`,
		`t_seconds_bucket{le="+Inf"} 5`,
		`t_seconds_count 5`,
		"# HELP t_seconds test",
		"# TYPE t_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 {
		t.Fatal("nil histogram reports observations")
	}
	var v *HistogramVec
	v.With("x").Observe(time.Second) // nil vec → nil child → no-op
	if err := v.Render(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("c_seconds", "test", ExpBuckets(time.Microsecond, 4, 8))
	var wg sync.WaitGroup
	const per = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i*w) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 8*per {
		t.Fatalf("count %d, want %d", got, 8*per)
	}
}

func TestHistogramVecPerLabel(t *testing.T) {
	v := NewHistogramVec("http_seconds", "test", "route", ExpBuckets(time.Millisecond, 2, 2))
	v.With("GET /a").Observe(time.Millisecond)
	v.With("GET /a").Observe(time.Millisecond)
	v.With("POST /b").Observe(time.Hour)
	if a, b := v.With("GET /a").Count(), v.With("POST /b").Count(); a != 2 || b != 1 {
		t.Fatalf("per-label counts %d/%d, want 2/1", a, b)
	}
	var out strings.Builder
	if err := v.Render(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`http_seconds_bucket{route="GET /a",le="0.001"} 2`,
		`http_seconds_bucket{route="POST /b",le="+Inf"} 1`,
		`http_seconds_count{route="GET /a"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Sorted by label value: "GET /a" renders before "POST /b".
	if strings.Index(text, `route="GET /a"`) > strings.Index(text, `route="POST /b"`) {
		t.Fatalf("label values not sorted:\n%s", text)
	}
}

func TestStageSet(t *testing.T) {
	ss := NewStageSet()
	st := ss.Stage("tally")
	if ss.Stage("tally") != st {
		t.Fatal("Stage is not idempotent")
	}
	st.RecordWorker(0, 100, 5*time.Millisecond)
	st.RecordWorker(0, 50, 3*time.Millisecond)
	ss.Stage("scatter").RecordWorker(0, 7, time.Millisecond)

	snaps := ss.Snapshot()
	if len(snaps) != 2 || snaps[0].Name != "scatter" || snaps[1].Name != "tally" {
		t.Fatalf("snapshot order/content wrong: %+v", snaps)
	}
	if s := snaps[1]; s.Batches != 2 || s.Edges != 150 || s.Busy != 8*time.Millisecond {
		t.Fatalf("tally snapshot %+v", s)
	}

	var out strings.Builder
	if err := ss.Render(&out, "kronserve"); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`kronserve_stage_batches_total{stage="tally"} 2`,
		`kronserve_stage_edges_total{stage="tally"} 150`,
		`kronserve_stage_busy_seconds_total{stage="tally"} 0.008`,
		`kronserve_stage_edges_total{stage="scatter"} 7`,
		"# TYPE kronserve_stage_edges_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	var nilSet *StageSet
	var nilStage *Stage
	nilStage.RecordWorker(0, 1, time.Second) // nil-safe
	nilStage.RecordWorker(3, 1, time.Second)
	if err := nilSet.Render(&out, "x"); err != nil {
		t.Fatal(err)
	}
}

// RecordWorker stripes across padded cells by worker index; Snapshot must sum
// every stripe, including workers past the cell count that wrap around.
func TestStageRecordWorkerStriping(t *testing.T) {
	ss := NewStageSet()
	st := ss.Stage("striped")
	const workers = stageCells + 3 // wraps: workers 16..18 share cells 0..2
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.RecordWorker(p, 10, time.Microsecond)
			}
		}(p)
	}
	wg.Wait()
	s := st.Snapshot()
	if s.Batches != workers*100 || s.Edges != workers*1000 || s.Busy != workers*100*time.Microsecond {
		t.Fatalf("striped totals %+v, want %d batches %d edges", s, workers*100, workers*1000)
	}
}
