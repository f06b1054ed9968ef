package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/kron"
)

// JobState is a job's lifecycle position: pending → running → one of
// done/failed/cancelled.
type JobState string

const (
	// StatePending means the job is admitted but generation has not started
	// (streaming jobs wait here until a consumer attaches to /edges).
	StatePending JobState = "pending"
	// StateRunning means generation workers are producing edges.
	StateRunning JobState = "running"
	// StateDone means every edge was generated (and, for streaming jobs,
	// handed to the consumer).
	StateDone JobState = "done"
	// StateFailed means generation stopped on an error.
	StateFailed JobState = "failed"
	// StateCancelled means the job was cancelled by a client or shutdown.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Trace phases — the lifecycle positions a job's timeline records. Terminal
// events reuse the JobState strings (done/failed/cancelled), so a trace's
// last phase names how the job ended.
const (
	// PhaseAdmitted: the job passed admission and holds a slot.
	PhaseAdmitted = "admitted"
	// PhaseShardPlanned: the deterministic plan slice this job generates was
	// resolved (sharded jobs only; carries the B range and edge count).
	PhaseShardPlanned = "shard-planned"
	// PhaseConsumerAttached: the /edges consumer claimed the stream
	// (streaming jobs only).
	PhaseConsumerAttached = "consumer-attached"
	// PhasePlanned: the split sides were realized and the generator built.
	PhasePlanned = "planned"
	// PhaseGenerating: generation workers started producing edges.
	PhaseGenerating = "generating"
	// PhaseStreaming: the first run reached the /edges consumer
	// (streaming jobs only).
	PhaseStreaming = "streaming"
)

// TraceEvent is one entry of a job's phase timeline.
type TraceEvent struct {
	// Phase is the lifecycle position reached (one of the Phase* constants
	// or a terminal JobState string).
	Phase string `json:"phase"`
	// At is when the phase was reached; events are appended in order, so
	// timestamps are monotone non-decreasing.
	At time.Time `json:"at"`
	// Detail carries phase-specific context (shard ranges, error text).
	Detail string `json:"detail,omitempty"`
}

// Sink selects what happens to generated edges.
const (
	// SinkStream hands edges to the single /edges consumer through a bounded
	// channel; generation waits for the consumer to attach and blocks when
	// the consumer falls behind (backpressure — a slow client throttles the
	// workers instead of growing a buffer).
	SinkStream = "stream"
	// SinkDiscard generates and counts edges without retaining them — the
	// paper's Figure 3 rate workload as a job.
	SinkDiscard = "discard"
)

// JobRequest is the wire form of a generation job.
type JobRequest struct {
	DesignRequest
	// Workers is the generation processor count; 0 means the server default.
	Workers int `json:"workers"`
	// Split is nb, the number of leading factors forming the B side; 0 lets
	// the server choose the balanced split.
	Split int `json:"split"`
	// Sink is "stream" (default) or "discard".
	Sink string `json:"sink"`
	// Shards makes the job shard-native: the design's work is split into
	// this many deterministic cost-balanced shards and the job generates
	// only shard Shard. 0 means unsharded (the whole graph). Every replica
	// submitting the same (design, split, shards) rebuilds the identical
	// plan, so N kronserve processes can each take one shard with no
	// coordinator.
	Shards int `json:"shards,omitempty"`
	// Shard is the shard index in [0, Shards); meaningful only when Shards
	// is positive.
	Shard int `json:"shard,omitempty"`
}

// Job is one admitted generation job.
type Job struct {
	id      string
	req     JobRequest
	design  *kron.Design
	workers int
	split   int
	sink    string
	// shard is the slice of the design's plan this job generates: the
	// requested shard of a sharded job, or the only slice of the one-shard
	// plan of an unsharded one. Its Edges is the job's total edge count.
	shard kron.ShardInfo

	ctx    context.Context
	cancel context.CancelFunc

	generated atomic.Int64
	streamed  atomic.Int64

	mu       sync.Mutex
	state    JobState
	err      error
	attached bool
	created  time.Time
	started  time.Time
	finished time.Time
	// checksum is the XOR content fold over every edge the job generated
	// (pipeline.Checksum, the same folding CountShard uses); hasChecksum
	// flips once generation completed successfully.
	checksum    int64
	hasChecksum bool

	// stream is the run hand-off from generation workers to the single
	// /edges consumer; nil for discard jobs. Closed by the generation pass
	// (and defensively by the run loop on paths where generation never
	// starts), after which the consumer sees end-of-stream.
	stream *pipeline.Async
	// attachCh is closed when the first consumer attaches.
	attachCh chan struct{}
	// done is closed when the run loop exits.
	done chan struct{}

	// trace is the job's phase timeline, appended under mu; see TraceEvent.
	trace []TraceEvent

	// valMu guards the job's validation state. validation is the plan's
	// design-level merged report, once this job merged it or adopted it
	// from a sibling; measured is the job's own slice measurement, nil until
	// /v1/validate computes it. measured keeps its mergeable CSR fragment
	// only while validation is nil: setting validation releases it.
	valMu      sync.Mutex
	validation *ValidationResponse
	measured   *kron.ShardValidation
}

// sharded reports whether the job was submitted as one shard of a K-shard
// plan; an unsharded job generates the one-shard plan.
func (j *Job) sharded() bool { return j.req.Shards > 0 }

// markLocked appends a phase event; the caller holds j.mu.
func (j *Job) markLocked(phase, detail string) {
	j.trace = append(j.trace, TraceEvent{Phase: phase, At: time.Now(), Detail: detail})
}

// mark appends a phase event to the job's timeline.
func (j *Job) mark(phase, detail string) {
	j.mu.Lock()
	j.markLocked(phase, detail)
	j.mu.Unlock()
}

// markStreaming records the first run reaching the /edges consumer. The
// consumer goroutine races the generator's finish: a small job buffers every
// run in the stream channel and can reach its terminal state before the
// consumer dequeues one, so when a terminal event is already recorded the
// streaming event slots in just before it, borrowing its timestamp — a
// trace's last phase must keep naming how the job ended and its timestamps
// must stay monotone.
func (j *Job) markStreaming() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.trace); n > 0 && j.state.Terminal() && j.trace[n-1].Phase == string(j.state) {
		term := j.trace[n-1]
		j.trace = append(j.trace[:n-1], TraceEvent{Phase: PhaseStreaming, At: term.At}, term)
		return
	}
	j.markLocked(PhaseStreaming, "")
}

// Trace returns a copy of the job's phase timeline so far.
func (j *Job) Trace() []TraceEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]TraceEvent(nil), j.trace...)
}

// phaseSummary renders the timeline compactly for one log record:
// "admitted → planned(+1.2ms) → generating(+1.3ms) → done(+50ms)", offsets
// relative to the first event. Caller holds j.mu.
func (j *Job) phaseSummaryLocked() string {
	if len(j.trace) == 0 {
		return ""
	}
	t0 := j.trace[0].At
	var b strings.Builder
	for i, ev := range j.trace {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(ev.Phase)
		if i > 0 {
			fmt.Fprintf(&b, "(+%s)", ev.At.Sub(t0).Round(10*time.Microsecond))
		}
	}
	return b.String()
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Cancel asks the job to stop; safe to call in any state and more than once.
func (j *Job) Cancel() { j.cancel() }

// ErrJobTerminal is returned by Attach when the job already finished:
// edges exist only in flight, so a terminal job's stream can never carry
// anything, and pretending otherwise would emit a well-formed-looking file
// with a header and zero entries.
var ErrJobTerminal = errors.New("job already finished; its edges were never stored and cannot be replayed")

// Attach claims the job's edge stream: the runs the generation pass
// produces, each a slice of the generator's immutable C block at one block
// offset, which the consumer encodes (or expands) and may keep as long as
// it likes. Exactly one consumer may attach over the job's lifetime; edges
// exist only in flight and are gone once read. Attaching to a job that
// already reached a terminal state fails with ErrJobTerminal (wrapped): its
// closed channel would produce a stream that declares totalEdges entries
// and delivers none.
func (j *Job) Attach() (<-chan pipeline.Run, error) {
	if j.sink != SinkStream {
		return nil, fmt.Errorf("job %s has sink %q; only %q jobs stream edges", j.id, j.sink, SinkStream)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Terminal wins over already-attached: once the job has finished, its
	// stream is permanently gone (410), whether or not someone consumed it —
	// re-attaching after a completed stream must not look retryable.
	if j.state.Terminal() {
		return nil, fmt.Errorf("job %s is %s: %w", j.id, j.state, ErrJobTerminal)
	}
	if j.attached {
		return nil, fmt.Errorf("job %s already has a stream consumer; edges are not stored for replay", j.id)
	}
	j.attached = true
	j.markLocked(PhaseConsumerAttached, "")
	close(j.attachCh)
	return j.stream.Out(), nil
}

// ShardStatus is the JSON rendering of a sharded job's slice of the plan.
type ShardStatus struct {
	Shard  int   `json:"shard"`
	Shards int   `json:"shards"`
	BLo    int   `json:"bLo"`
	BHi    int   `json:"bHi"`
	Edges  int64 `json:"edges"`
}

// shardStatus renders a plan slice.
func shardStatus(s kron.ShardInfo) ShardStatus {
	return ShardStatus{Shard: s.Shard, Shards: s.Shards, BLo: s.BLo, BHi: s.BHi, Edges: s.Edges}
}

// JobStatus is the JSON rendering of a job's state and progress.
type JobStatus struct {
	ID     string        `json:"id"`
	State  JobState      `json:"state"`
	Design DesignRequest `json:"design"`
	// DesignHash is the identity under which the design's shard plans are
	// served (/v1/designs/{hash}/shardplan).
	DesignHash string `json:"designHash"`
	Workers    int    `json:"workers"`
	Split      int    `json:"split"`
	Sink       string `json:"sink"`
	// Shard identifies the slice of the plan a sharded job generates; absent
	// for unsharded jobs. TotalEdges counts only this shard's edges.
	Shard          *ShardStatus `json:"shard,omitempty"`
	TotalEdges     int64        `json:"totalEdges"`
	GeneratedEdges int64        `json:"generatedEdges"`
	StreamedEdges  int64        `json:"streamedEdges"`
	// Checksum is the XOR content fold over every edge the job generated —
	// the identical folding CountEdges and CountShard use — teed out of the
	// same generation pass that streamed the edges; present once generation
	// completed. A sharded job's checksum is its shard's (CountShard's
	// value), and XORing all shards' checksums yields the whole design's,
	// so completeness of a K-replica run is verifiable from job statuses
	// alone.
	Checksum *int64 `json:"checksum,omitempty"`
	// Progress is generated/total in [0,1].
	Progress float64 `json:"progress"`
	// EdgesPerSec is the job's generation rate while running and its final
	// average once finished.
	EdgesPerSec float64    `json:"edgesPerSec"`
	Error       string     `json:"error,omitempty"`
	CreatedAt   time.Time  `json:"createdAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	state, err := j.state, j.err
	created, started, finished := j.created, j.started, j.finished
	checksum, hasChecksum := j.checksum, j.hasChecksum
	j.mu.Unlock()
	gen := j.generated.Load()
	st := JobStatus{
		ID:             j.id,
		State:          state,
		Design:         j.req.DesignRequest,
		DesignHash:     j.req.DesignRequest.Hash(),
		Workers:        j.workers,
		Split:          j.split,
		Sink:           j.sink,
		TotalEdges:     j.shard.Edges,
		GeneratedEdges: gen,
		StreamedEdges:  j.streamed.Load(),
		CreatedAt:      created,
	}
	if hasChecksum {
		st.Checksum = &checksum
	}
	if j.sharded() {
		sh := shardStatus(j.shard)
		st.Shard = &sh
	}
	if !started.IsZero() {
		st.StartedAt = &started
	}
	if !finished.IsZero() {
		st.FinishedAt = &finished
	}
	if err != nil {
		st.Error = err.Error()
	}
	if j.shard.Edges > 0 {
		st.Progress = float64(gen) / float64(j.shard.Edges)
	}
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		if secs := end.Sub(started).Seconds(); secs > 0 {
			st.EdgesPerSec = float64(gen) / secs
		}
	}
	return st
}

// Manager admits, tracks, and runs jobs with bounded concurrency.
type Manager struct {
	cfg     Config
	metrics *Metrics
	logger  *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	active int
	seq    int
	closed bool
	wg     sync.WaitGroup
}

// ErrBusy is returned by Submit when the concurrent-job limit is reached.
var ErrBusy = errors.New("service: concurrent job limit reached")

// NewManager returns a Manager using cfg's limits, recording to metrics,
// and logging job lifecycle records to cfg.Logger (nil discards them).
func NewManager(cfg Config, metrics *Metrics) *Manager {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Manager{
		cfg:     cfg,
		metrics: metrics,
		logger:  logger,
		jobs:    make(map[string]*Job),
	}
}

// splitSides is a design's B ⊗ C decomposition at a resolved split point:
// the closed-form stored-entry counts of both sides, known before either is
// realized.
type splitSides struct {
	split      int
	bnnz, cnnz *big.Int
}

// resolveSplit resolves a requested split point — 0 means
// kron.BalancedSplitPoint under MaxCNNZ — and sizes both sides of d there.
// Job admission and the shard-plan endpoint both resolve through it, so a
// plan fetched with the default split names the split its jobs get.
func (m *Manager) resolveSplit(d *kron.Design, split int) (splitSides, error) {
	if split == 0 {
		var err error
		if split, err = kron.BalancedSplitPoint(d, m.cfg.MaxCNNZ); err != nil {
			return splitSides{}, err
		}
	}
	bd, cd, err := d.Split(split)
	if err != nil {
		return splitSides{}, err
	}
	return splitSides{split: split, bnnz: bd.NNZWithLoops(), cnnz: cd.NNZWithLoops()}, nil
}

// Submit validates the request against the server's admission limits,
// registers the job, and starts its run loop. Validation is entirely
// design-side: the closed forms bound the realization cost of both split
// sides before any memory is committed. The job's own context derives its
// values (trace identity, loggers) from ctx but not its cancellation: a job
// outlives the submitting HTTP request and ends only via Cancel, Close, or
// its own completion.
func (m *Manager) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	d, err := req.Build()
	if err != nil {
		return nil, err
	}
	edges := d.NumEdges()
	if !edges.IsInt64() {
		return nil, fmt.Errorf("design has %s edges; streaming jobs need an int64-sized graph (compute properties via /v1/designs instead)", edges)
	}
	if d.NumFactors() < 2 {
		return nil, fmt.Errorf("generation needs at least two factors to split into B ⊗ C")
	}
	sides, err := m.resolveSplit(d, req.Split)
	if err != nil {
		return nil, err
	}
	split := sides.split
	// The realization bounds: each worker scans all of C, so C must stay
	// processor-local (Section V), and B is realized in server memory.
	if !sides.cnnz.IsInt64() || sides.cnnz.Int64() > m.cfg.MaxCNNZ {
		return nil, fmt.Errorf("C side of split %d has %s stored entries, over the per-worker bound %d", split, sides.cnnz, m.cfg.MaxCNNZ)
	}
	if !sides.bnnz.IsInt64() || sides.bnnz.Int64() > m.cfg.MaxBNNZ {
		return nil, fmt.Errorf("B side of split %d has %s stored entries, over the realization bound %d", split, sides.bnnz, m.cfg.MaxBNNZ)
	}
	workers := req.Workers
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), m.cfg.MaxWorkers)
	}
	if workers < 1 || workers > m.cfg.MaxWorkers {
		return nil, fmt.Errorf("workers %d outside [1, %d]", workers, m.cfg.MaxWorkers)
	}
	sink := req.Sink
	if sink == "" {
		sink = SinkStream
	}
	if sink != SinkStream && sink != SinkDiscard {
		return nil, fmt.Errorf("unknown sink %q (want %q or %q)", sink, SinkStream, SinkDiscard)
	}
	// Shard identity: validated design-side like the split above, so a bad
	// spec is a 400 before any slot or memory is committed. The plan is
	// computed here from the design's closed forms — deterministic, so
	// every replica submitting the same (design, split, shards) gets the
	// ranges a coordinator fetched. An unsharded job generates the only
	// shard of the one-shard plan.
	if req.Shards < 0 {
		return nil, fmt.Errorf("shards %d; a sharded job needs shards ≥ 1 (0 means unsharded)", req.Shards)
	}
	if req.Shards == 0 && req.Shard != 0 {
		return nil, fmt.Errorf("shard %d given without shards; set shards to the plan's total shard count", req.Shard)
	}
	sharded := req.Shards > 0
	if sharded && (req.Shard < 0 || req.Shard >= req.Shards) {
		return nil, fmt.Errorf("shard %d outside [0, %d)", req.Shard, req.Shards)
	}
	plan, err := kron.PlanShards(d, split, max(req.Shards, 1))
	if err != nil {
		return nil, err
	}
	shard := plan[req.Shard]
	if sharded {
		m.metrics.ShardJobs.Add(1)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("service: shutting down")
	}
	if m.active >= m.cfg.MaxConcurrentJobs {
		m.mu.Unlock()
		m.metrics.JobsRejected.Add(1)
		return nil, ErrBusy
	}
	m.active++
	m.seq++
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	j := &Job{
		id:       fmt.Sprintf("j%06d", m.seq),
		req:      req,
		design:   d,
		workers:  workers,
		split:    split,
		sink:     sink,
		shard:    shard,
		ctx:      jctx,
		cancel:   cancel,
		state:    StatePending,
		created:  time.Now(),
		attachCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	if sink == SinkStream {
		// The job's context bounds the hand-off: a producer blocked on a
		// full queue (consumer fell behind) aborts when the job is
		// cancelled, exactly as the raw channel send did.
		j.stream = pipeline.NewAsync(jctx, m.cfg.QueueDepth)
	}
	j.markLocked(PhaseAdmitted, fmt.Sprintf("workers=%d split=%d sink=%s", workers, split, sink))
	if sharded {
		j.markLocked(PhaseShardPlanned,
			fmt.Sprintf("shard=%d/%d bRange=[%d,%d) edges=%d",
				shard.Shard, shard.Shards, shard.BLo, shard.BHi, shard.Edges))
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.wg.Add(1)
	m.mu.Unlock()

	m.metrics.JobsCreated.Add(1)
	m.metrics.JobsActive.Add(1)
	m.logger.Info("job admitted",
		"job", j.id, "design", req.DesignRequest.Hash(), "workers", workers,
		"split", split, "sink", sink, "totalEdges", shard.Edges, "sharded", sharded)
	go m.run(j)
	return j, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all jobs in creation order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Close cancels every job and waits for all run loops to exit; no further
// submissions are accepted.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	m.wg.Wait()
}

// run is the job's lifecycle loop: wait for a consumer (streaming jobs),
// realize the split sides, generate, finish.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	defer close(j.done)
	if j.stream != nil {
		// Closed here — not by the generation pass, which sees the stream
		// through pipeline.KeepOpen — so the close happens after finish has
		// recorded the terminal state (defers run after the body's
		// m.finish): the consumer's end-of-stream Status snapshot reports
		// the job's final state, and paths where generation never starts
		// (attach timeout, realization failure) still deliver end-of-stream.
		defer j.stream.Close()
	}
	if j.sink == SinkStream {
		// A streaming job with no consumer must not hold an admission slot
		// forever: unattended jobs are cancelled after AttachTimeout so a
		// client that submits and walks away cannot wedge the service.
		timeout := time.NewTimer(m.cfg.AttachTimeout)
		defer timeout.Stop()
		select {
		case <-j.attachCh:
		case <-timeout.C:
			m.finish(j, fmt.Errorf("no consumer attached to the edge stream within %v: %w",
				m.cfg.AttachTimeout, context.DeadlineExceeded))
			return
		case <-j.ctx.Done():
			m.finish(j, j.ctx.Err())
			return
		}
	}
	realizeStart := time.Now()
	g, err := kron.NewGenerator(j.design, j.split)
	if err != nil {
		m.finish(j, err)
		return
	}
	j.mark(PhasePlanned, fmt.Sprintf("split=%d nnzB=%d nnzC=%d", j.split, g.BNNZ(), g.CNNZ()))
	m.metrics.JobRealize.Observe(time.Since(realizeStart))
	if err := j.ctx.Err(); err != nil { // cancelled during realization
		m.finish(j, err)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	start := j.started
	queueWait := start.Sub(j.created)
	j.markLocked(PhaseGenerating, "")
	j.mu.Unlock()
	m.metrics.JobQueueWait.Observe(queueWait)
	err = m.generate(j, g)
	m.metrics.GenNanos.Add(time.Since(start).Nanoseconds())
	m.finish(j, err)
}

// generate drives the communication-free generator over the job's plan
// slice in one pipeline pass: progress accounting, the per-job content
// checksum, and (for streaming jobs) the consumer hand-off are teed sinks
// fed by the same runs — generate once, consume three ways. The hand-off
// keeps the backpressure contract (a full queue blocks the workers until
// the consumer catches up or the job is cancelled) and copies nothing: a
// run only points at the generator's immutable C block. On success the
// checksum fold is recorded on the job, where JobStatus surfaces it and
// /v1/validate reconciles the slice's measurement against it.
func (m *Manager) generate(j *Job, g *kron.Generator) error {
	sink, cks := m.jobSink(j)
	err := g.StreamShardTo(j.ctx, j.shard, j.workers, m.cfg.BatchSize, sink)
	if err == nil {
		j.mu.Lock()
		j.checksum, j.hasChecksum = cks.Sum(), true
		j.mu.Unlock()
	}
	return err
}

// Stage names under which the job sink chain's members report to /metrics
// (kronserve_stage_*_total{stage=...}). Process-wide totals: every job's
// chain records into the same three stages.
const (
	stageProgress = "service_progress"
	stageChecksum = "service_checksum"
	stageStream   = "service_stream"
)

// jobSink builds the job's one-pass sink chain: the progress/metrics fold
// and the checksum fold, teed with the stream hand-off for streaming jobs.
// The stream sink rides behind pipeline.KeepOpen — the run loop, not the
// generation pass, closes it, so end-of-stream is observed only after the
// job's terminal state is recorded. Factored out of generate so the
// alloc-regression guard can pin the chain's zero-allocation property
// without running a whole job.
func (m *Manager) jobSink(j *Job) (pipeline.Sink, *pipeline.Checksum) {
	cks := pipeline.NewChecksum(j.workers)
	// Both folds are closed form per run: progress adds the run's length,
	// the checksum folds its block-local terms.
	progress := pipeline.RunFunc(func(p int, r pipeline.Run) error {
		n := int64(r.Len())
		j.generated.Add(n)
		m.metrics.EdgesGenerated.Add(n)
		return nil
	})
	// Every member rides behind pipeline.Instrument, so /metrics carries
	// per-stage batches (runs), edges, and busy-seconds for the whole
	// serving chain; the wrappers add two clock reads and three atomic adds
	// per run and keep the chain allocation-free (pinned by the alloc
	// guard).
	instrProgress := pipeline.Instrument(obs.Stages.Stage(stageProgress), progress)
	instrCks := pipeline.Instrument(obs.Stages.Stage(stageChecksum), cks)
	if j.stream == nil {
		return pipeline.Tee(instrProgress, instrCks), cks
	}
	stream := pipeline.Instrument(obs.Stages.Stage(stageStream), pipeline.KeepOpen(j.stream))
	return pipeline.Tee(instrProgress, instrCks, stream), cks
}

// finish records the terminal state exactly once per job. Classification
// keys on the job's own context, not on errors.Is(err, context.Canceled):
// when one generation worker fails, RunContext cancels its peers and joins
// their context.Canceled results with the real error, so matching the
// joined error would silently relabel genuine failures as cancellations.
// Only j.ctx carries client- or shutdown-initiated cancellation.
func (m *Manager) finish(j *Job, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		m.metrics.JobsDone.Add(1)
	case j.ctx.Err() != nil:
		j.state = StateCancelled // client- or shutdown-initiated; the cause needs no error text
		m.metrics.JobsCancelled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.err = err // deadline cancels (attach timeout) keep their explanation
		m.metrics.JobsCancelled.Add(1)
	default:
		j.state = StateFailed
		j.err = err
		m.metrics.JobsFailed.Add(1)
	}
	// The terminal trace event reuses the state string, so a trace's last
	// phase names how the job ended; failures carry the error text.
	detail := ""
	if j.err != nil {
		detail = j.err.Error()
	}
	j.markLocked(string(j.state), detail)
	state := j.state
	var runTime time.Duration
	if !j.started.IsZero() {
		runTime = j.finished.Sub(j.started)
	}
	summary := j.phaseSummaryLocked()
	j.mu.Unlock()
	if runTime > 0 {
		m.metrics.JobRunTime.Observe(runTime)
	}
	m.mu.Lock()
	m.active--
	m.pruneLocked()
	m.mu.Unlock()
	m.metrics.JobsActive.Add(-1)
	attrs := []any{
		"job", j.id, "state", state, "edges", j.generated.Load(),
		"runTime", runTime, "phases", summary,
	}
	if err != nil {
		attrs = append(attrs, "err", err)
	}
	m.logger.Info("job finished", attrs...)
}

// pruneLocked evicts the oldest finished jobs beyond MaxJobHistory so a
// long-lived server's registry stays bounded; unfinished jobs are never
// evicted. Caller holds m.mu.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - m.cfg.MaxJobHistory
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}
