// Command kronserve runs the streaming graph-generation job service: the
// paper's design → generate → validate workflow behind a long-running HTTP
// API.
//
//	kronserve -addr :8080 -max-jobs 8 -max-workers 16
//
// Endpoints:
//
//	POST   /v1/designs         exact properties of a design (no generation)
//	POST   /v1/jobs            start a generation job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status + progress
//	GET    /v1/jobs/{id}/edges chunked edge stream (format=tsv|matrixmarket)
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/validate/{id}   exact-agreement validation of a done job
//	GET    /v1/jobs/{id}/trace job phase timeline (admitted → … → terminal)
//	GET    /healthz            liveness
//	GET    /metrics            Prometheus text exposition
//
// Requests and job lifecycles are logged as structured records (-log-format
// json|text) with request and job IDs for correlation. With -debug-addr a
// second listener serves net/http/pprof under /debug/pprof/ and expvar under
// /debug/vars — kept off the API listener so profiling endpoints are never
// exposed where the job API is.
//
// See README.md for a curl-level walkthrough (including the observability
// runbook) and examples/service for a Go client round trip.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// debugHandler builds the -debug-addr mux: net/http/pprof's handlers wired
// explicitly (the package's init-time DefaultServeMux registration is
// useless here — the API mux must never inherit them) plus expvar.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func main() {
	fs := flag.NewFlagSet("kronserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxJobs := fs.Int("max-jobs", 0, "max concurrent jobs (0 = default)")
	maxWorkers := fs.Int("max-workers", 0, "max per-job generation workers (0 = default)")
	cacheSize := fs.Int("cache", 0, "design-property LRU capacity (0 = default)")
	maxBNNZ := fs.Int64("max-bnnz", 0, "max B-side stored entries per job (0 = default)")
	maxCNNZ := fs.Int64("max-cnnz", 0, "max C-side stored entries per job (0 = default)")
	batch := fs.Int("batch", 0, "longest run of edges a worker hands the stream, the unit of backpressure and cancellation latency (0 = default)")
	queueDepth := fs.Int("queue-depth", 0, "per-job stream buffer in runs (0 = default)")
	attachTimeout := fs.Duration("attach-timeout", 0, "cancel streaming jobs with no consumer after this long (0 = default)")
	history := fs.Int("history", 0, "finished jobs kept queryable (0 = default)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	debugAddr := fs.String("debug-addr", "", "optional second listen address serving /debug/pprof/ and /debug/vars (empty = disabled)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "kronserve: -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	// Negative sizes would silently fall back to defaults inside
	// service.New; reject them up front so a typo'd deployment fails loudly
	// at startup instead of running with a configuration it never had.
	// (-cache stays out of the list: a negative capacity legitimately
	// disables the property and plan caches.)
	for _, v := range []struct {
		name  string
		value int64
	}{{"-batch", int64(*batch)}, {"-queue-depth", int64(*queueDepth)},
		{"-max-jobs", int64(*maxJobs)}, {"-max-workers", int64(*maxWorkers)},
		{"-history", int64(*history)}, {"-max-bnnz", *maxBNNZ}, {"-max-cnnz", *maxCNNZ}} {
		if v.value < 0 {
			fmt.Fprintf(os.Stderr, "kronserve: %s %d: must be ≥ 0 (0 selects the default)\n", v.name, v.value)
			os.Exit(2)
		}
	}

	svc := service.New(service.Config{
		MaxConcurrentJobs: *maxJobs,
		MaxWorkers:        *maxWorkers,
		CacheSize:         *cacheSize,
		MaxBNNZ:           *maxBNNZ,
		MaxCNNZ:           *maxCNNZ,
		BatchSize:         *batch,
		QueueDepth:        *queueDepth,
		AttachTimeout:     *attachTimeout,
		MaxJobHistory:     *history,
		Logger:            logger,
	})

	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Edge streams run for as long as generation takes; only bound the
		// handshake and idle keep-alives, never the response write.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("kronserve listening", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()
	var debugSrv *http.Server
	if *debugAddr != "" {
		// The debug listener is best-effort: it shares the process's fate but
		// not the API's — a failure here is logged and the service keeps
		// serving jobs.
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr,
				"endpoints", "/debug/pprof/ /debug/vars")
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("draining on signal", "signal", sig.String())
	case err := <-errCh:
		logger.Error("listener failed", "err", err)
		svc.Close()
		os.Exit(1)
	}

	// Cancel running jobs first (closes their edge streams), then shut the
	// listeners down gracefully.
	svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
}
