// Command driserve serves DRI i-cache simulations over an HTTP JSON API,
// backed by the shared concurrent simulation engine: a bounded worker pool
// with a memoizing result cache and single-flight deduplication, so
// repeated and concurrent identical requests cost one simulation.
//
// Endpoints:
//
//	GET  /healthz        liveness, serving status (ok/degraded), layer metrics
//	GET  /metrics        Prometheus text exposition of the full registry
//	GET  /v1/stats       engine, trace replay store, and runtime counters
//	GET  /v1/metrics     the same registry snapshot as JSON
//	GET  /v1/benchmarks  the fifteen SPEC95 stand-ins
//	GET  /v1/policies    the leakage-control policies and their defaults
//	POST /v1/run         one simulation (conventional, DRI, or policy)
//	POST /v1/compare     vs the conventional baseline with §5.2 energy
//	POST /v1/sweep       a (benchmark × miss-bound × size-bound) grid
//	POST /v1/jobs        submit a run/compare/sweep as an async job (202)
//	GET  /v1/jobs        retained jobs, newest first, plus queue stats
//	GET  /v1/jobs/{id}   job status, and the result once done
//	DELETE /v1/jobs/{id} cancel: queued jobs settle immediately, running
//	                     simulations abort at the next chunk boundary
//	GET  /v1/jobs/{id}/progress  the job's SSE progress stream
//
// Every simulation request is a job: /v1/run, /v1/compare and /v1/sweep
// run as jobs named by their request ID and wait for them, so they pass
// the same admission control as POST /v1/jobs before queueing: -jobqueue
// bounds the queue, -jobsperclient and -jobclientinstructions bound one
// client (X-API-Key header, or remote host), and rejections are structured
// 429s with a Retry-After estimated from queue depth and recent run times.
// Deadlines ("timeoutSeconds" or ?timeout=30s) cancel overdue work, queued
// or mid-run, and a client disconnect cancels a synchronous request's job.
// On shutdown the manager stops admitting, cancels queued jobs, and drains
// running ones within -draintimeout.
//
// Appending ?trace=1 to /v1/run, /v1/compare, or /v1/sweep returns the
// request's span tree (validate → job queue wait → cache lookup → batch
// grouping → lane run → stream decode, pipeline, assemble →
// compare_assemble) under a "trace" key; without it the
// tree is logged at debug level. Every request carries an X-Request-ID
// (inbound value honored) through the structured access log. -mutexprofile
// and -blockprofile enable the runtime contention profiles the -pprof
// listener serves.
//
// -persistdir enables the crash-safe persistent store: simulation results
// and trace recordings are written behind the in-memory caches as
// checksummed, atomically renamed artifacts, and a restarted server serves
// them as cache hits, bit-identical to fresh simulation. Corrupt or torn
// files are quarantined (renamed .corrupt) and recomputed; persistent I/O
// failure flips the store to memory-only degraded mode (surfaced as
// "status":"degraded" on /healthz and persist_* metrics) with background
// re-probing, never failing a request. -persistbudget bounds the on-disk
// footprint with oldest-first eviction.
//
// Sweep traffic executes on the engine's lane scheduler: requests that
// survive the result cache are grouped by (benchmark, budget) and each
// group runs as lock-step lanes over a single decode of its instruction
// stream (-lanes bounds the lanes per batch; 0 is the GOMAXPROCS-aware
// automatic policy). /v1/stats and /healthz expose the lane counters, and
// -pprof <port> serves net/http/pprof on a localhost-only listener for
// production profiling.
//
// Examples:
//
//	driserve -addr :8080 -workers 8 -lanes 16 -pprof 6060
//	curl localhost:8080/v1/benchmarks
//	curl -d '{"benchmark":"applu","cache":{"dri":{"missBound":256,"sizeBoundBytes":1024}}}' \
//	    localhost:8080/v1/compare
//	curl -d '{"benchmark":"applu","cache":{"assoc":4},"policy":{"kind":"drowsy"}}' \
//	    localhost:8080/v1/compare
//
// Every response embeds the engine's hit/miss/dedup counters; repeating an
// identical request shows the hit count advancing instead of new work.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// requests drain for up to -draintimeout, then remaining connections are
// forced closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dricache/internal/engine"
	"dricache/internal/jobs"
	"dricache/internal/persist"
	"dricache/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		lanes        = flag.Int("lanes", 0, "max simulation lanes per sweep batch (0 = automatic, GOMAXPROCS-aware)")
		maxInstr     = flag.Uint64("maxinstructions", 50_000_000, "per-run instruction budget limit")
		cacheLimit   = flag.Int("cachelimit", 65536, "max cached results (0 = unbounded)")
		traceBudget  = flag.Int64("tracebudget", trace.DefaultStoreBudget, "trace replay store byte budget (0 = record nothing)")
		drainTimeout = flag.Duration("draintimeout", 15*time.Second, "graceful-shutdown drain limit for in-flight requests")
		jobWorkers   = flag.Int("jobworkers", 0, "max concurrently running jobs (0 = GOMAXPROCS)")
		jobQueue     = flag.Int("jobqueue", 64, "max jobs waiting for a worker")
		jobsPerCli   = flag.Int("jobsperclient", 4, "max queued+running jobs per client")
		jobCliInstrs = flag.Uint64("jobclientinstructions", 0, "max summed instruction estimates queued per client (0 = unlimited)")
		jobRetention = flag.Int("jobretention", 256, "finished jobs retained for result pickup")
		jobDeadline  = flag.Duration("jobmaxdeadline", 0, "cap on per-job deadlines, applied to unbounded jobs too (0 = uncapped)")
		persistDir   = flag.String("persistdir", "", "directory for the crash-safe result/trace store (empty = memory-only)")
		persistBudg  = flag.Int64("persistbudget", 2<<30, "persistent store byte budget, oldest artifacts evicted beyond it (0 = unbounded)")
		pprofPort    = flag.Int("pprof", 0, "serve net/http/pprof on 127.0.0.1:<port> (0 = disabled)")
		mutexProfile = flag.Int("mutexprofile", 0, "mutex contention profile sampling rate, 1/n events (0 = disabled)")
		blockProfile = flag.Int("blockprofile", 0, "goroutine blocking profile sampling rate in ns (0 = disabled)")
		logLevel     = flag.String("loglevel", "info", "log level: debug, info, warn, error (debug also logs span trees)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "invalid -loglevel %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	trace.SharedStore().SetBudget(*traceBudget)
	eng := engine.New(*workers)
	eng.SetCacheLimit(*cacheLimit)
	eng.SetLanes(*lanes)
	// The persistence layer, when enabled, sits under both memoizing caches:
	// results and trace recordings survive restarts, and any disk trouble
	// degrades to memory-only serving rather than failing requests. Open
	// never fails over disk state — a dead directory starts degraded and
	// keeps re-probing.
	var pstore *persist.Store
	if *persistDir != "" {
		var err error
		pstore, err = persist.Open(persist.Config{
			Dir:         *persistDir,
			BudgetBytes: *persistBudg,
			Log:         logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		eng.SetPersist(pstore)
		trace.SharedStore().SetPersist(pstore)
		h := pstore.Health()
		logger.Info("persistence enabled",
			"dir", *persistDir, "budgetBytes", *persistBudg, "status", h.Status)
	}
	// The pprof listener serves whatever the runtime samples; contention
	// profiles stay empty unless these rates are set.
	if *mutexProfile > 0 {
		runtime.SetMutexProfileFraction(*mutexProfile)
	}
	if *blockProfile > 0 {
		runtime.SetBlockProfileRate(*blockProfile)
	}
	if *pprofPort > 0 {
		go servePprof(*pprofPort)
	}
	app := buildServer(eng, *maxInstr, jobs.Config{
		Workers:               *jobWorkers,
		MaxQueue:              *jobQueue,
		MaxPerClient:          *jobsPerCli,
		MaxClientInstructions: *jobCliInstrs,
		Retention:             *jobRetention,
		MaxDeadline:           *jobDeadline,
	}, pstore)
	srv := &http.Server{
		Handler:           app.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger.Info("driserve listening",
		"addr", ln.Addr().String(),
		"workers", eng.Parallelism(),
		"maxInstructionsPerRun", *maxInstr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runServer(ctx, srv, ln, *drainTimeout, app.jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if pstore != nil {
		// Drain the write-behind queue so results computed just before the
		// signal survive the restart, then stop the committer.
		fctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := pstore.Close(fctx); err != nil {
			logger.Warn("persistent store close", "err", err)
		}
		cancel()
	}
	logger.Info("driserve stopped")
}

// runServer serves on ln until ctx is cancelled (SIGINT/SIGTERM in main),
// then shuts down gracefully: the listener closes immediately, and within
// one shared drain budget in-flight requests get to finish while the job
// manager stops admitting, cancels queued jobs, and drains running ones —
// past the budget, remaining connections are forced closed and remaining
// jobs are cancelled mid-run (the chunk-boundary checks make the abort
// prompt). It returns nil on a clean or drained shutdown, and the serve
// error if the server fails before cancellation.
func runServer(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, jm *jobs.Manager) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down; draining in-flight requests and jobs", "limit", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	jobsErrc := make(chan error, 1)
	go func() { jobsErrc <- jm.Shutdown(sctx) }()
	err := srv.Shutdown(sctx)
	// Serve always returns ErrServerClosed after Shutdown; collect it so
	// the goroutine does not leak.
	if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	if jobsErr := <-jobsErrc; jobsErr != nil {
		// The drain budget expired with jobs still running; they were
		// force-cancelled (cause: shutdown) and have settled by now.
		slog.Warn("job drain limit reached; running jobs were cancelled", "err", jobsErr)
	}
	if err != nil {
		// The drain timeout expired with requests still in flight; their
		// connections were closed forcibly. Report but do not fail.
		slog.Warn("drain limit reached", "err", err)
	}
	return nil
}

// servePprof exposes the net/http/pprof profiling handlers on a
// localhost-only listener, kept off the public API mux so production
// profiling never rides the service port. Registration is explicit (not the
// DefaultServeMux side effect) so nothing else can leak onto the listener.
func servePprof(port int) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	slog.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err := http.ListenAndServe(addr, mux); err != nil {
		slog.Error("pprof server", "err", err)
	}
}
