package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"repro/kron"
)

// Config bounds the service. The zero value is not usable; call
// DefaultConfig and override fields as needed.
type Config struct {
	// MaxConcurrentJobs bounds admitted-but-unfinished jobs; submissions
	// over the limit get 429.
	MaxConcurrentJobs int
	// MaxWorkers bounds the per-job generation processor count.
	MaxWorkers int
	// CacheSize is the design-property LRU capacity.
	CacheSize int
	// MaxCNNZ bounds the C side's stored entries (each worker scans all of
	// C for every owned B triple, so C must stay processor-local, Section V).
	MaxCNNZ int64
	// MaxBNNZ bounds the B side's stored entries (B is realized in server
	// memory once per job).
	MaxBNNZ int64
	// BatchSize is the longest run, in edges, generation hands to the
	// streaming sinks — the unit of backpressure, progress accounting, and
	// cancellation latency (the generator checks its context once per
	// run). Defaults to kron.DefaultStreamBatchSize.
	BatchSize int
	// QueueDepth is the per-job edge-stream channel capacity in runs of at
	// most BatchSize edges; it bounds how far generation may run ahead of a
	// slow client.
	QueueDepth int
	// AttachTimeout cancels a streaming job whose /edges consumer never
	// shows up, so abandoned submissions release their admission slot.
	AttachTimeout time.Duration
	// MaxJobHistory bounds how many finished jobs stay queryable; the
	// oldest finished jobs are evicted first. Running jobs never count
	// against it.
	MaxJobHistory int
	// MaxShards bounds the shard count of plans and sharded jobs (a plan
	// response carries one entry per shard, so an unbounded count would let
	// one GET allocate arbitrarily).
	MaxShards int
	// MaxChecksumEdges bounds the edges a ?checksums=1 shard-plan request may
	// enumerate synchronously; larger plans must be verified shard-by-shard
	// by the processes that generate them.
	MaxChecksumEdges int64
	// Logger receives the service's structured records: one access-log line
	// per request and the job lifecycle (admission, completion with its
	// phase timeline). nil discards them — embedding tests stay quiet, and
	// kronserve always passes a real handler.
	Logger *slog.Logger
}

// DefaultConfig returns production-shaped limits: bounded admission, a B
// side up to ~16M triples (the paper's trillion-edge B is 13.8M), and a
// backpressure window of 64 runs (at most ~128k edges in flight per job).
// MaxWorkers bounds logical processors (goroutines carrying a paper-style
// processor id p), not OS cores, so it stays useful on small machines.
func DefaultConfig() Config {
	return Config{
		MaxConcurrentJobs: 8,
		MaxWorkers:        max(16, 2*runtime.GOMAXPROCS(0)),
		CacheSize:         128,
		MaxCNNZ:           kron.DefaultMaxCNNZ,
		MaxBNNZ:           1 << 24,
		BatchSize:         kron.DefaultStreamBatchSize,
		QueueDepth:        64,
		AttachTimeout:     2 * time.Minute,
		MaxJobHistory:     256,
		MaxShards:         1 << 16,
		MaxChecksumEdges:  1 << 30,
	}
}

// Service wires the job manager, design cache, metrics, and routes.
type Service struct {
	cfg     Config
	metrics *Metrics
	cache   *designCache
	// hashes maps a design's order-sensitive hash back to its request so
	// /v1/designs/{hash}/shardplan can rebuild plans; registered on every
	// design query and job submission.
	hashes  *lru[DesignRequest]
	manager *Manager
	mux     *http.ServeMux
	logger  *slog.Logger
}

// New builds a Service from cfg, filling unset limits from DefaultConfig.
func New(cfg Config) *Service {
	def := DefaultConfig()
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = def.MaxConcurrentJobs
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = def.MaxWorkers
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.MaxCNNZ <= 0 {
		cfg.MaxCNNZ = def.MaxCNNZ
	}
	if cfg.MaxBNNZ <= 0 {
		cfg.MaxBNNZ = def.MaxBNNZ
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = def.BatchSize
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.AttachTimeout <= 0 {
		cfg.AttachTimeout = def.AttachTimeout
	}
	if cfg.MaxJobHistory <= 0 {
		cfg.MaxJobHistory = def.MaxJobHistory
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = def.MaxShards
	}
	if cfg.MaxChecksumEdges <= 0 {
		cfg.MaxChecksumEdges = def.MaxChecksumEdges
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		cfg:     cfg,
		metrics: NewMetrics(),
		logger:  cfg.Logger,
		cache:   newDesignCache(cfg.CacheSize),
		// The hash registry is a lookup table, not a cache: a negative
		// CacheSize legitimately disables the property and plan caches
		// (latency only), but a capacity-0 registry would make every
		// /shardplan request 404 forever, so it keeps a floor of one entry.
		hashes: newLRU[DesignRequest](max(cfg.CacheSize, 1)),
		mux:    http.NewServeMux(),
	}
	s.manager = NewManager(cfg, s.metrics)
	s.routes()
	return s
}

// Handler returns the service's HTTP handler, wrapped with the request-
// observability middleware (per-route latency histograms + access log).
func (s *Service) Handler() http.Handler { return s.withObservability(s.mux) }

// Metrics returns the service's metrics for embedding programs.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Close cancels all jobs and waits for their run loops; the handler keeps
// answering reads but admits no new jobs.
func (s *Service) Close() { s.manager.Close() }

func (s *Service) routes() {
	s.mux.HandleFunc("POST /v1/designs", s.handleDesign)
	s.mux.HandleFunc("GET /v1/designs/{hash}/shardplan", s.handleShardPlan)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/edges", s.handleStreamEdges)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/validate/{id}", s.handleValidate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// statusClientClosedRequest is the conventional (nginx-originated) status
// for requests abandoned by the client before the response; no client reads
// it, but it keeps access logs honest about why the handler returned early.
const statusClientClosedRequest = 499

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// handleDesign computes a design's exact properties — the paper's "design"
// stage as an instant query, cached by canonical design.
func (s *Service) handleDesign(w http.ResponseWriter, r *http.Request) {
	var req DesignRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	key := req.Key()
	if props, ok := s.cache.get(key); ok {
		s.metrics.CacheHits.Add(1)
		out := *props
		// Echo the caller's factor order — and its hash: closed-form
		// properties are order-invariant (hence the shared cache line), but
		// the shard-plan identity is not.
		out.Design = req
		out.Hash = req.Hash()
		out.Cached = true
		s.hashes.put(out.Hash, req)
		writeJSON(w, http.StatusOK, out)
		return
	}
	props, err := computeProperties(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.hashes.put(props.Hash, req)
	// Invalid designs don't count as misses: the miss/hit ratio should
	// reflect cacheable traffic only.
	s.metrics.CacheMisses.Add(1)
	s.metrics.DesignsComputed.Add(1)
	s.cache.put(key, props)
	writeJSON(w, http.StatusOK, *props)
}

// handleCreateJob admits a generation job.
func (s *Service) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	j, err := s.manager.Submit(r.Context(), req)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Any design the service generates is addressable for shard planning.
	s.hashes.put(req.DesignRequest.Hash(), req.DesignRequest)
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.manager.List()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: out})
}

func (s *Service) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// TraceResponse is the JSON rendering of one job's phase timeline: every
// lifecycle transition the job went through, in order, with monotone
// timestamps — the per-job answer to "where did the time go" that aggregate
// histograms cannot give.
type TraceResponse struct {
	ID     string       `json:"id"`
	State  JobState     `json:"state"`
	Events []TraceEvent `json:"events"`
}

// handleJobTrace serves the job's accumulated phase events. The timeline is
// available at any point in the job's life; once the job is terminal its
// last event is the terminal phase (done/failed/cancelled).
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		ID:     j.ID(),
		State:  j.Status().State,
		Events: j.Trace(),
	})
}

func (s *Service) handleStreamEdges(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.streamJob(w, r, j, negotiateFormat(r))
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.Status())
}

// ValidationResponse is the JSON rendering of the paper's predicted-vs-
// measured comparison for one finished job.
type ValidationResponse struct {
	JobID   string        `json:"jobId"`
	Design  DesignRequest `json:"design"`
	Workers int           `json:"workers"`

	PredictedVertices  string `json:"predictedVertices"`
	PredictedEdges     string `json:"predictedEdges"`
	PredictedTriangles string `json:"predictedTriangles"`

	MeasuredVertices  int64 `json:"measuredVertices"`
	MeasuredEdges     int64 `json:"measuredEdges"`
	MeasuredTriangles int64 `json:"measuredTriangles"`

	DegreePointsPredicted int `json:"degreePointsPredicted"`
	DegreePointsMeasured  int `json:"degreePointsMeasured"`

	ExactAgreement bool     `json:"exactAgreement"`
	Mismatches     []string `json:"mismatches,omitempty"`
}

// handleValidate regenerates a finished job's design, measures the realized
// edges, and reports whether every property agrees exactly with the closed
// forms — the validation pillar of the paper as an endpoint. The report is
// computed once per job and cached on it.
func (s *Service) handleValidate(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; only done jobs can be validated", j.ID(), st.State))
		return
	}
	if j.shard != nil {
		// A shard job produced one slice of a plan, so its validation is
		// shard-native: measure the slice, reconcile it against the plan's
		// closed-form count and the generation checksum, and merge with the
		// sibling shards' fragments into the design-level report once the
		// whole plan has been validated.
		s.handleValidateShard(w, r, j)
		return
	}
	if j.totalEdges > kron.MaxValidationEdges {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("job %s has %d edges, over the %d-edge validation realization bound; its design-side properties remain exact",
				j.ID(), j.totalEdges, int64(kron.MaxValidationEdges)))
		return
	}
	j.valMu.Lock()
	defer j.valMu.Unlock()
	if j.validation == nil {
		// The request context rides through the whole measurement: a client
		// that disconnects mid-validation stops the generation passes and
		// the triangle bands instead of burning cores on an answer nobody
		// will read. Nothing partial is cached.
		rep, err := kron.Validate(r.Context(), j.design, j.split, j.workers)
		if err != nil {
			// Only an actual cancellation error counts as "client gone": a
			// genuine validation failure must keep its 500 + message even
			// when the impatient client has meanwhile disconnected. The
			// status code is then a log artifact (499 is nginx's "client
			// closed request").
			if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
				writeError(w, statusClientClosedRequest, "validation cancelled: client disconnected")
				return
			}
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.metrics.ValidationsRun.Add(1)
		if rep.ExactAgreement {
			s.metrics.ValidationsExact.Add(1)
		}
		j.validation = &ValidationResponse{
			JobID:                 j.ID(),
			Design:                j.req.DesignRequest,
			Workers:               rep.Workers,
			PredictedVertices:     rep.PredictedVertices.String(),
			PredictedEdges:        rep.PredictedEdges.String(),
			PredictedTriangles:    rep.PredictedTriangles.String(),
			MeasuredVertices:      rep.MeasuredVertices,
			MeasuredEdges:         rep.MeasuredEdges,
			MeasuredTriangles:     rep.MeasuredTriangles,
			DegreePointsPredicted: rep.PredictedDegrees.Len(),
			DegreePointsMeasured:  rep.MeasuredDegrees.Len(),
			ExactAgreement:        rep.ExactAgreement,
			Mismatches:            rep.Mismatches,
		}
	}
	writeJSON(w, http.StatusOK, *j.validation)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.writeMetrics(w)
}
