package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/graphio"
	"repro/internal/pipeline"
)

// Edge stream formats accepted by GET /v1/jobs/{id}/edges?format=...
const (
	// FormatTSV streams 0-based "row\tcol\tval" lines (default).
	FormatTSV = "tsv"
	// FormatMatrixMarket streams MatrixMarket coordinate entries with a
	// header declaring the design-time exact edge count.
	FormatMatrixMarket = "matrixmarket"
	// FormatBinary streams the KRNB framed binary format: header with the
	// design-time exact edge count, delta-varint (default) or fixed-width
	// frames (?enc=delta|fixed), and a trailer with the actual count plus the
	// XOR content checksum the job status reports.
	FormatBinary = "bin"
)

// ContentTypeBinary is the media type of the KRNB binary edge stream, also
// accepted in the request Accept header to select format=bin.
const ContentTypeBinary = "application/x-kron-edges"

// negotiateFormat resolves the stream format for a request: an explicit
// ?format= always wins; otherwise an Accept header naming the binary media
// type selects it, and anything else (including no Accept at all — curl's
// */*) falls through to the TSV default. Unknown Accept values are ignored
// rather than rejected: Accept is a preference, ?format= is a command.
func negotiateFormat(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return f
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if mediaType == ContentTypeBinary {
			return FormatBinary
		}
	}
	return ""
}

// binaryEncoding maps the ?enc= parameter to the payload encoding; empty
// picks the compact delta default.
func binaryEncoding(enc string) (graphio.BinaryEncoding, error) {
	switch enc {
	case "", "delta":
		return graphio.BinaryDelta, nil
	case "fixed":
		return graphio.BinaryFixed, nil
	default:
		return 0, fmt.Errorf("unknown binary encoding %q (want \"delta\" or \"fixed\")", enc)
	}
}

// checkFormat validates the requested format and encoding without writing
// anything, so a bad request can be rejected before the job's one stream is
// claimed.
func checkFormat(format, enc string, j *Job) error {
	if enc != "" && format != FormatBinary {
		return fmt.Errorf("enc parameter applies only to format=%s", FormatBinary)
	}
	switch format {
	case "", FormatTSV:
		return nil
	case FormatMatrixMarket, "mm":
		if n := j.design.NumVertices(); !n.IsInt64() {
			return fmt.Errorf("vertex count %s exceeds MatrixMarket int64 header range", n)
		}
		return nil
	case FormatBinary:
		_, err := binaryEncoding(enc)
		return err
	default:
		return fmt.Errorf("unknown format %q (want %q, %q, or %q)", format, FormatTSV, FormatMatrixMarket, FormatBinary)
	}
}

// newEdgeWriter builds the encoder for a checkFormat-validated format and
// sets the response content type. The MatrixMarket and binary headers — both
// of which declare the exact edge count — are written immediately: because
// the design's edge count is exact before generation, the service can emit a
// complete, well-formed header for a graph that does not exist yet.
func newEdgeWriter(w http.ResponseWriter, format, enc string, j *Job, header string) (graphio.EdgeWriter, error) {
	switch format {
	case FormatMatrixMarket, "mm":
		w.Header().Set("Content-Type", "text/plain; charset=us-ascii")
		n := j.design.NumVertices().Int64()
		return graphio.NewMatrixMarketEdgeWriter(w, n, n, j.totalEdges, header)
	case FormatBinary:
		encoding, err := binaryEncoding(enc)
		if err != nil {
			return nil, err
		}
		w.Header().Set("Content-Type", ContentTypeBinary)
		return graphio.NewBinaryEdgeWriter(w, j.totalEdges, encoding)
	default:
		w.Header().Set("Content-Type", "text/tab-separated-values")
		ew := graphio.NewTSVEdgeWriter(w)
		if err := ew.Comment(header); err != nil {
			return nil, err
		}
		return ew, nil
	}
}

// streamJob encodes the job's runs to the HTTP response until the stream
// ends, the client disconnects, or encoding fails. Every format takes the
// same path: the response's edge writer behind pipeline.Writer, which
// replays the block's cached bytes for KRNB delta and expands the run for
// everything else. The loop owns the consumer side of the backpressure
// contract — the queue is bounded, the workers block when it is full, and
// this loop drains it only as fast as the client accepts bytes. A client
// that disconnects mid-stream cancels the job — edges are not stored, so an
// abandoned stream can never be resumed and finishing it would be pure
// waste.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, j *Job, format string) {
	enc := r.URL.Query().Get("enc")
	if err := checkFormat(format, enc, j); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ch, err := j.Attach()
	if err != nil {
		// A terminal job's stream is gone for good (410), not merely busy
		// (409): edges are never stored, so there is nothing to come back
		// for.
		status := http.StatusConflict
		if errors.Is(err, ErrJobTerminal) {
			status = http.StatusGone
		}
		writeError(w, status, err.Error())
		return
	}
	header := fmt.Sprintf("kronserve job %s design %s workers %d totalEdges %d",
		j.id, j.req.Key(), j.workers, j.totalEdges)
	if j.shard != nil {
		header += fmt.Sprintf(" shard %d/%d", j.shard.Shard, j.shard.Shards)
	}
	ew, err := newEdgeWriter(w, format, enc, j, header)
	if err != nil {
		// Both writers buffer their header, so nothing has been committed
		// to the response yet and a real error status can still be sent —
		// a bare return here would hand the client a bodyless implicit 200.
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("initializing %s edge stream: %v", format, err))
		// Attach succeeded, so generation is now waking up; cancel it since
		// this (sole possible) consumer is bailing out.
		j.Cancel()
		return
	}
	out := pipeline.Writer(ew)
	flusher, _ := w.(http.Flusher)
	flush := func() error {
		if err := ew.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := flush(); err != nil {
		j.Cancel()
		return
	}
	// flushEvery bounds how many edges are encoded between flushes so
	// clients see edges while generation is still running (chunked
	// transfer).
	flushEvery := 8 * s.cfg.BatchSize
	sinceFlush := 0
	clientGone := r.Context().Done()
	// lastRun times the gaps between consecutive run receives for the
	// inter-arrival histogram; zero until the first run lands (which also
	// marks the job's streaming phase).
	var lastRun time.Time
	for {
		select {
		case run, ok := <-ch:
			if !ok {
				// Generation finished (or was cancelled); report how it ended
				// in a trailer comment the format's reader ignores. Closing
				// the writer sink finishes formats with an explicit
				// end-of-stream marker (the binary trailer: its actual count
				// and checksum are the end state, and a cancelled job's
				// shortfall surfaces as a header/trailer count mismatch on
				// read) and flushes the rest.
				st := j.Status()
				_ = ew.Comment(fmt.Sprintf("end state=%s generated=%d streamed=%d",
					st.State, st.GeneratedEdges, st.StreamedEdges))
				if out.Close() == nil && flusher != nil {
					flusher.Flush()
				}
				return
			}
			now := time.Now()
			if lastRun.IsZero() {
				j.markStreaming()
			} else {
				s.metrics.StreamBatchGap.Observe(now.Sub(lastRun))
			}
			lastRun = now
			err := out.WriteRun(0, run)
			if err == nil {
				n := run.Len()
				j.streamed.Add(int64(n))
				s.metrics.EdgesStreamed.Add(int64(n))
				if sinceFlush += n; sinceFlush >= flushEvery {
					sinceFlush = 0
					err = flush()
				}
			}
			if err != nil {
				// Client write failure: the sole consumer is gone.
				j.Cancel()
				return
			}
		case <-clientGone:
			j.Cancel()
			return
		}
	}
}

// copyMetrics writes the metrics exposition; split out so handlers.go stays
// routing-only.
func (s *Service) writeMetrics(w io.Writer) error {
	_, err := s.metrics.WriteTo(w)
	return err
}
