package service

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expoFamily is one metric family reconstructed from the exposition text.
type expoFamily struct {
	typ     string
	help    bool
	samples int
}

// histKey identifies one histogram series: family plus its non-le labels.
type histKey struct {
	family string
	labels string
}

// histSeries collects one series' bucket samples plus its _count.
type histSeries struct {
	les    []float64
	counts []int64
	count  int64
	hasCnt bool
}

// parseSample splits "name{labels} value" into name, label text, value.
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces in %q", line)
		}
		name, labels, rest = line[:i], line[i+1:j], line[j+1:]
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		name, rest = line[:i], line[i:]
	} else {
		return "", "", "", fmt.Errorf("no value in %q", line)
	}
	value = strings.TrimSpace(rest)
	if value == "" {
		return "", "", "", fmt.Errorf("no value in %q", line)
	}
	return name, labels, value, nil
}

// labelVal extracts one label's value from rendered label text, reporting
// whether the label is present.
func labelVal(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// dropLabel removes one label from rendered label text (for grouping bucket
// samples by their non-le labels).
func dropLabel(labels, key string) string {
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if part == "" {
			continue
		}
		if k, _, ok := strings.Cut(part, "="); ok && k == key {
			continue
		}
		kept = append(kept, part)
	}
	return strings.Join(kept, ",")
}

// familyOf maps a sample name to its declared family: histogram samples use
// the _bucket/_sum/_count suffixes of a family declared without them.
func familyOf(name string, families map[string]*expoFamily) (string, *expoFamily) {
	if f, ok := families[name]; ok {
		return name, f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if f, ok := families[base]; ok && f.typ == "histogram" {
				return base, f
			}
		}
	}
	return "", nil
}

// TestMetricsExposition scrapes a server that has run the full workload mix —
// a validated discard job and a consumed stream job — and checks the
// exposition's structure line by line: every sample belongs to a family with
// HELP and TYPE declared first, counter families end in _total, histogram
// buckets are cumulative-monotone with a final le="+Inf" equal to _count,
// and the series the observability layer promises are all present.
func TestMetricsExposition(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}

	// Discard job to done, then validate it (runs the instrumented
	// validate_tally / validate_scatter passes and the validate_triangles
	// count in-process).
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{DesignRequest: design, Workers: 2, Split: 1, Sink: SinkDiscard})
	job := decodeBody[JobStatus](t, resp)
	waitForState(t, ts.URL, job.ID, StateDone)
	vresp, err := http.Get(ts.URL + "/v1/validate/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeBody[ValidationResponse](t, vresp); !v.ExactAgreement {
		t.Fatalf("validation disagreed: %v", v.Mismatches)
	}

	// Stream job, fully consumed (drives the service_stream stage and the
	// batch-gap histogram's first-batch path).
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{DesignRequest: design, Workers: 2, Split: 1})
	sjob := decodeBody[JobStatus](t, resp)
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + sjob.ID + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.Copy(io.Discard, eresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	waitForState(t, ts.URL, sjob.ID, StateDone)

	// Warm-up scrape: the middleware observes a route's latency after the
	// handler returns, so only a second scrape can contain the /metrics
	// route's own series.
	warm, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mresp.StatusCode)
	}

	families := map[string]*expoFamily{}
	hists := map[histKey]*histSeries{}
	var sampleLines []string
	sc := bufio.NewScanner(mresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || strings.TrimSpace(help) == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			if families[name] == nil {
				families[name] = &expoFamily{}
			}
			families[name].help = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("TYPE line without type: %q", line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			if families[name] == nil {
				families[name] = &expoFamily{}
			}
			families[name].typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		sampleLines = append(sampleLines, line)

		name, labels, value, err := parseSample(line)
		if err != nil {
			t.Fatal(err)
		}
		family, f := familyOf(name, families)
		if f == nil {
			t.Fatalf("sample %q has no declared family", line)
		}
		if !f.help || f.typ == "" {
			t.Fatalf("family %q of sample %q missing HELP or TYPE before first sample", family, line)
		}
		f.samples++
		if f.typ == "counter" && !strings.HasSuffix(family, "_total") {
			t.Fatalf("counter family %q does not end in _total", family)
		}
		if f.typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labelVal(labels, "le")
				if !ok {
					t.Fatalf("bucket sample without le label: %q", line)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("bad le %q in %q", le, line)
					}
				}
				cnt, err := strconv.ParseInt(value, 10, 64)
				if err != nil {
					t.Fatalf("bad bucket count in %q: %v", line, err)
				}
				k := histKey{family, dropLabel(labels, "le")}
				if hists[k] == nil {
					hists[k] = &histSeries{}
				}
				hists[k].les = append(hists[k].les, bound)
				hists[k].counts = append(hists[k].counts, cnt)
			case strings.HasSuffix(name, "_count"):
				cnt, err := strconv.ParseInt(value, 10, 64)
				if err != nil {
					t.Fatalf("bad _count in %q: %v", line, err)
				}
				k := histKey{family, labels}
				if hists[k] == nil {
					hists[k] = &histSeries{}
				}
				hists[k].count = cnt
				hists[k].hasCnt = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Histogram invariants per series: ascending le bounds, cumulative
	// monotone counts, final bucket +Inf and equal to _count.
	for k, h := range hists {
		if len(h.les) == 0 {
			t.Fatalf("histogram series %v has no buckets", k)
		}
		if !sort.Float64sAreSorted(h.les) {
			t.Fatalf("histogram series %v bucket bounds not ascending: %v", k, h.les)
		}
		for i := 1; i < len(h.counts); i++ {
			if h.counts[i] < h.counts[i-1] {
				t.Fatalf("histogram series %v buckets not cumulative: %v", k, h.counts)
			}
		}
		if !math.IsInf(h.les[len(h.les)-1], 1) {
			t.Fatalf("histogram series %v does not end at le=+Inf", k)
		}
		if !h.hasCnt {
			t.Fatalf("histogram series %v has buckets but no _count", k)
		}
		if last := h.counts[len(h.counts)-1]; last != h.count {
			t.Fatalf("histogram series %v: +Inf bucket %d != _count %d", k, last, h.count)
		}
	}

	// The series the observability layer promises. Stage counters carry the
	// full serving chain plus both validation passes; the route histogram has
	// per-pattern children from the requests this test made.
	all := strings.Join(sampleLines, "\n")
	for _, want := range []string{
		`kronserve_http_request_seconds_bucket{route="POST /v1/jobs",`,
		`kronserve_http_request_seconds_bucket{route="GET /metrics",`,
		"kronserve_job_queue_wait_seconds_count",
		"kronserve_job_realize_seconds_count",
		"kronserve_job_run_seconds_count",
		"kronserve_stream_batch_gap_seconds_count",
		`kronserve_stage_batches_total{stage="service_progress"}`,
		`kronserve_stage_edges_total{stage="service_checksum"}`,
		`kronserve_stage_busy_seconds_total{stage="service_stream"}`,
		`kronserve_stage_batches_total{stage="validate_tally"}`,
		`kronserve_stage_batches_total{stage="validate_scatter"}`,
		`kronserve_stage_busy_seconds_total{stage="validate_triangles"}`,
		"kronserve_jobs_done_total",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// The stream job's body is the only edge stream this server wrote.
	if want := fmt.Sprintf("kronserve_stream_bytes_total %d\n", body); !strings.Contains(all+"\n", want) {
		t.Errorf("exposition lacks %q: the edge stream's body bytes", strings.TrimSpace(want))
	}
	// The two jobs plus validation ran through the instrumented chain, so
	// run-time observations must exist (both jobs finished).
	if c := svc.Metrics().JobRunTime.Count(); c < 2 {
		t.Errorf("job run-time histogram has %d observations, want ≥ 2", c)
	}
	// Both jobs were planned, so each realized its split once.
	if c := svc.Metrics().JobRealize.Count(); c < 2 {
		t.Errorf("job realize histogram has %d observations, want ≥ 2", c)
	}
}
