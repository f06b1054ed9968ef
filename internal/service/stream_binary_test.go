package service

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graphio"
)

// TestStreamFormatRejection pins the request-validation contract of the
// edges endpoint: every malformed format/enc combination is rejected with a
// clean 400 — JSON error envelope, no leaked stream bytes — and, because
// validation runs before Attach, the job's one stream is not claimed, so a
// well-formed request can still collect it afterwards.
func TestStreamFormatRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4}, Loop: "hub"}
	job := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{DesignRequest: design, Workers: 1}))

	for _, tc := range []struct {
		name, query, wantMsg string
	}{
		{"unknown format", "?format=bogus", "unknown format"},
		{"unknown binary encoding", "?format=bin&enc=bogus", "unknown binary encoding"},
		{"retired fixed encoding", "?format=bin&enc=fixed", "delta is the only encoding"},
		{"enc without bin", "?format=tsv&enc=fixed", "enc parameter applies only"},
		{"enc with default format", "?enc=delta", "enc parameter applies only"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/edges" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("%s: status %d, want 400", tc.query, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				resp.Body.Close()
				t.Fatalf("%s: error content type %q, want application/json", tc.query, ct)
			}
			body := decodeBody[errorBody](t, resp)
			if !strings.Contains(body.Error, tc.wantMsg) {
				t.Fatalf("%s: error %q does not mention %q", tc.query, body.Error, tc.wantMsg)
			}
		})
	}

	// The rejections above must not have claimed the stream or woken the job.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/edges?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream after rejected requests: %d, want 200 (stream claimed by a 400?)", resp.StatusCode)
	}
	if _, err := ReadBinaryBody(t, resp.Body); err != nil {
		t.Fatalf("stream after rejected requests does not decode: %v", err)
	}
}

// ReadBinaryBody decodes a complete binary response body, returning the
// decoded edges in stream order.
func ReadBinaryBody(t *testing.T, r io.Reader) ([]graphio.Edge, error) {
	t.Helper()
	var edges []graphio.Edge
	_, err := graphio.ReadBinary(context.Background(), r, func(batch []graphio.Edge) error {
		edges = append(edges, batch...)
		return nil
	})
	return edges, err
}

// parseTSVStream parses a streamed TSV body into edges in stream order,
// skipping comment lines (header and end trailer).
func parseTSVStream(t *testing.T, raw []byte) []graphio.Edge {
	t.Helper()
	var edges []graphio.Edge
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("malformed TSV line %q", line)
		}
		var e graphio.Edge
		var err error
		if e.Row, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			t.Fatal(err)
		}
		if e.Col, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			t.Fatal(err)
		}
		if e.Val, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return edges
}

// streamJobEdges creates a single-worker job for design and streams its
// edges once with the given query string and headers, returning the raw body
// and the job's terminal status (which carries the service-side checksum).
func streamJobEdges(t *testing.T, ts string, design DesignRequest, query string, hdr map[string]string) ([]byte, *http.Response, JobStatus) {
	t.Helper()
	// Workers: 1 makes the stream order deterministic (band order), so two
	// jobs of the same design yield comparable streams.
	job := decodeBody[JobStatus](t, postJSON(t, ts+"/v1/jobs", JobRequest{DesignRequest: design, Workers: 1}))
	req, err := http.NewRequest(http.MethodGet, ts+"/v1/jobs/"+job.ID+"/edges"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET edges%s: %d: %s", query, resp.StatusCode, body)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp, waitForState(t, ts, job.ID, StateDone)
}

// TestStreamBinaryMatchesTSV is the service-level conformance check: the
// same design streamed as TSV and as KRNB, however the binary format is
// requested, yields the same edges in the same order, and the binary
// trailer's count and checksum reconcile with the header's design-time nnz
// and the job's own checksum fold (the value shard plans and validation
// use).
func TestStreamBinaryMatchesTSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4, 5}, Loop: "hub"}

	rawTSV, respTSV, _ := streamJobEdges(t, ts.URL, design, "", nil)
	if ct := respTSV.Header.Get("Content-Type"); ct != "text/tab-separated-values" {
		t.Fatalf("tsv content type %q", ct)
	}
	want := parseTSVStream(t, rawTSV)
	if len(want) == 0 {
		t.Fatal("tsv stream carried no edges")
	}

	for _, tc := range []struct {
		name  string
		query string
		hdr   map[string]string
	}{
		{"delta via query", "?format=bin", nil},
		{"delta named in query", "?format=bin&enc=delta", nil},
		{"delta via accept", "", map[string]string{"Accept": ContentTypeBinary}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, resp, st := streamJobEdges(t, ts.URL, design, tc.query, tc.hdr)
			if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
				t.Fatalf("binary content type %q, want %q", ct, ContentTypeBinary)
			}
			var got []graphio.Edge
			info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(raw), func(batch []graphio.Edge) error {
				got = append(got, batch...)
				return nil
			})
			if err != nil {
				t.Fatalf("binary stream does not decode: %v", err)
			}
			if info.NNZ != st.TotalEdges || info.Edges != st.TotalEdges {
				t.Fatalf("binary header/trailer counts %d/%d, design says %d", info.NNZ, info.Edges, st.TotalEdges)
			}
			if st.Checksum == nil {
				t.Fatal("done job reports no checksum")
			}
			if info.Checksum != *st.Checksum {
				t.Fatalf("binary trailer checksum %#x, job fold %#x", uint64(info.Checksum), uint64(*st.Checksum))
			}
			if len(got) != len(want) {
				t.Fatalf("binary stream carried %d edges, tsv %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("edge %d: binary %+v, tsv %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestStreamFormatNegotiation pins the precedence rules: explicit ?format=
// beats the Accept header, and Accept values the service does not recognize
// fall through to the TSV default instead of erroring.
func TestStreamFormatNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := DesignRequest{Points: []int{3, 4}, Loop: "hub"}

	raw, resp, _ := streamJobEdges(t, ts.URL, design, "?format=tsv", map[string]string{"Accept": ContentTypeBinary})
	if ct := resp.Header.Get("Content-Type"); ct != "text/tab-separated-values" {
		t.Fatalf("explicit ?format=tsv lost to Accept: content type %q", ct)
	}
	if bytes.HasPrefix(raw, []byte("KRNB")) {
		t.Fatal("explicit ?format=tsv streamed binary")
	}

	raw, resp, _ = streamJobEdges(t, ts.URL, design, "", map[string]string{"Accept": "application/vnd.something-else, text/html;q=0.9"})
	if ct := resp.Header.Get("Content-Type"); ct != "text/tab-separated-values" {
		t.Fatalf("unknown Accept should fall back to tsv, got content type %q", ct)
	}
	if len(parseTSVStream(t, raw)) == 0 {
		t.Fatal("fallback stream carried no edges")
	}

	// Accept lists with parameters still match the binary media type.
	raw, resp, _ = streamJobEdges(t, ts.URL, design, "", map[string]string{"Accept": "text/html;q=0.8, " + ContentTypeBinary + ";q=0.9"})
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("Accept with parameters did not select binary: content type %q", ct)
	}
	if !bytes.HasPrefix(raw, []byte("KRNB")) {
		t.Fatal("negotiated binary stream lacks KRNB magic")
	}
}
