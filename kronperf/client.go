package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/kron"
)

// server is an in-process kronserve — the real service handler behind a
// loopback TCP listener, so every byte crosses a socket — and the one
// client connection the closed loop drives it through.
type server struct {
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func startServer(ctx context.Context) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{})
	s := &server{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	var health struct {
		Status string `json:"status"`
	}
	if err := s.call(ctx, http.MethodGet, "/healthz", nil, &health); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the connection and the listener, waits for the server loop
// to return, and cancels and waits for every job.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // only reports the listener's close error
	<-s.served
	s.svc.Close()
}

// open sends a request and returns the response of a 2xx reply; any other
// status, a 429 included, is an error.
func (s *server) open(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// call sends a JSON request and decodes the 2xx JSON reply into out.
func (s *server) call(ctx context.Context, method, path string, body, out any) error {
	resp, err := s.open(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// scrape reads the service's /metrics and returns its unlabelled series.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	resp, err := s.open(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			series[name] = v
		}
	}
	return series, sc.Err()
}

// timedReader counts the bytes read through it and, when timed, the time
// and calls spent blocked in Read.
type timedReader struct {
	r     io.Reader
	timed bool
	bytes int64
	wait  time.Duration
	reads int
}

func (t *timedReader) Read(p []byte) (int, error) {
	if !t.timed {
		n, err := t.r.Read(p)
		t.bytes += int64(n)
		return n, err
	}
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.wait += time.Since(t0)
	t.reads++
	t.bytes += int64(n)
	return n, err
}

// streamCount is what a client decoded from one edge stream: the edge
// count and the XOR fold of row·31+col the job reports as its checksum.
type streamCount struct {
	edges    int64
	checksum int64
}

// Edge stream formats the serve workloads request.
const (
	formatDelta = "delta" // ?format=bin&enc=delta, decoded by kron.ReadBinary
	formatTSV   = "tsv"   // ?format=tsv, parsed line by line
)

// decodeStream reads a whole edge stream in the given format and checks
// every edge against a design with the given vertex count. onFirst, if set,
// runs when the first edge is decoded.
func decodeStream(ctx context.Context, format string, r io.Reader, vertices int64, onFirst func()) (streamCount, error) {
	if format == formatTSV {
		return decodeTSV(r, vertices, onFirst)
	}
	info, err := kron.ReadBinary(ctx, r, func(batch []kron.Edge) error {
		if onFirst != nil {
			onFirst()
			onFirst = nil
		}
		for _, e := range batch {
			if err := checkEdge(e.Row, e.Col, e.Val, vertices); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return streamCount{}, err
	}
	// ReadBinary has checked the trailer's count and checksum against the
	// edges it decoded and the header's declared count.
	return streamCount{edges: info.Edges, checksum: info.Checksum}, nil
}

// checkEdge checks what the stream checksum leaves out: every entry of a
// star-product adjacency matrix has value 1, and both coordinates are
// vertices of the design.
func checkEdge(row, col, val, vertices int64) error {
	if val != 1 || uint64(row) >= uint64(vertices) || uint64(col) >= uint64(vertices) {
		return fmt.Errorf("%w: edge (%d, %d) = %d in a %d-vertex 0/1 adjacency", errUnverified, row, col, val, vertices)
	}
	return nil
}

// tsvEnd starts the comment a complete kronserve TSV stream ends with.
const tsvEnd = "# end state="

// decodeTSV parses and checks every "row\tcol\tval" line of a kronserve TSV
// stream and folds its checksum. The stream must end with the service's end
// comment reporting state=done; a body cut short has none.
func decodeTSV(r io.Reader, vertices int64, onFirst func()) (streamCount, error) {
	var c streamCount
	br := bufio.NewReaderSize(r, 64<<10)
	state := ""
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil {
			return c, fmt.Errorf("reading TSV stream: %w (after %d edges)", err, c.edges)
		}
		if state != "" {
			return c, fmt.Errorf("%w: data after the end comment", errUnverified)
		}
		if line[0] == '#' {
			if rest, ok := strings.CutPrefix(string(line), tsvEnd); ok {
				state, _, _ = strings.Cut(rest, " ")
			}
			continue
		}
		row, col, val, ok := parseTSVEdge(line)
		if !ok {
			return c, fmt.Errorf("%w: bad TSV line %q", errUnverified, line)
		}
		if err := checkEdge(row, col, val, vertices); err != nil {
			return c, err
		}
		if c.edges == 0 && onFirst != nil {
			onFirst()
		}
		c.edges++
		c.checksum ^= row*31 + col
	}
	if state != "done" {
		return c, fmt.Errorf("%w: TSV stream ended without a done end comment (state %q, %d edges)", errUnverified, state, c.edges)
	}
	return c, nil
}

// parseTSVEdge parses "row\tcol\tval\n" with non-negative decimal fields.
func parseTSVEdge(line []byte) (row, col, val int64, ok bool) {
	var f [3]int64
	i := 0
	for k := range f {
		start := i
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			f[k] = f[k]*10 + int64(line[i]-'0')
			i++
		}
		sep := byte('\t')
		if k == 2 {
			sep = '\n'
		}
		if i == start || i >= len(line) || line[i] != sep {
			return 0, 0, 0, false
		}
		i++
	}
	return f[0], f[1], f[2], i == len(line)
}

// reconcile checks a decoded stream against the design's predicted edge
// count and the job's final status.
func reconcile(got streamCount, predicted int64, st service.JobStatus) error {
	switch {
	case st.State != service.StateDone:
		return fmt.Errorf("%w: job %s ended %s: %s", errUnverified, st.ID, st.State, st.Error)
	case got.edges != predicted:
		return fmt.Errorf("%w: decoded %d edges, the design predicts %d", errUnverified, got.edges, predicted)
	case st.GeneratedEdges != predicted || st.StreamedEdges != predicted:
		return fmt.Errorf("%w: job generated %d and streamed %d edges, the design predicts %d",
			errUnverified, st.GeneratedEdges, st.StreamedEdges, predicted)
	case st.Checksum == nil:
		return fmt.Errorf("%w: job %s reports no checksum", errUnverified, st.ID)
	case *st.Checksum != got.checksum:
		return fmt.Errorf("%w: decoded checksum %#x, job reports %#x", errUnverified, uint64(got.checksum), uint64(*st.Checksum))
	}
	return nil
}
