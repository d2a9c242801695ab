package main

// The service's observability surface. newServer assembles one obs.Registry
// covering every layer under it — engine result cache and worker pool, lane
// scheduler and executor, trace replay store, process-wide simulation
// counters, Go runtime — plus the HTTP-level instruments defined here. That
// registry is the single source of truth: GET /metrics is its Prometheus
// exposition, GET /v1/metrics its JSON form, and the legacy JSON blocks on
// /healthz and /v1/stats are thin views over one snapshot of it, so the
// surfaces cannot drift apart. A sync response's "engine" section reads the
// same eight counters from engine.Stats, which the registry's engine series
// are collected from, without paying for a whole snapshot per request.
//
// Every request passes through instrument: a request ID (inbound
// X-Request-ID honored, generated otherwise) rides the context and the
// response header, an obs trace roots the request's span tree, latency and
// status-class counters are recorded per path, and the access log goes
// through slog. Handlers return the span tree under a "trace" key when the
// caller passes ?trace=1; otherwise it is logged at debug level (and built
// only when that level is enabled).

import (
	"log/slog"
	"net/http"
	"strings"
	"time"

	"dricache/internal/engine"
	"dricache/internal/obs"
)

// servedPaths enumerates the routes that get their own latency histogram
// and status counters; anything else lands under "other".
var servedPaths = []string{
	"/healthz", "/metrics",
	"/v1/stats", "/v1/metrics", "/v1/benchmarks", "/v1/policies",
	"/v1/run", "/v1/compare", "/v1/sweep", "/v1/runs/:id/progress",
	"/v1/jobs", "/v1/jobs/:id", "/v1/jobs/:id/progress",
}

// metricPath collapses parameterized routes to their pattern so per-path
// metric cardinality stays bounded by servedPaths — job IDs, like request
// IDs, must never become label values. The placeholder is spelled :id (not
// {id}) to keep label values free of braces, which the stricter
// exposition-format consumers reject.
func metricPath(p string) string {
	if strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/progress") {
		return "/v1/runs/:id/progress"
	}
	if rest, ok := strings.CutPrefix(p, "/v1/jobs/"); ok && rest != "" {
		if strings.HasSuffix(rest, "/progress") {
			return "/v1/jobs/:id/progress"
		}
		return "/v1/jobs/:id"
	}
	return p
}

var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// httpInstruments holds the pre-registered per-path HTTP metrics. All
// instruments are created at construction, so the request path never
// registers (and the registry's duplicate panic never fires mid-flight).
type httpInstruments struct {
	latency     map[string]*obs.Histogram
	requests    map[string]map[string]*obs.Counter
	sweepPoints *obs.Histogram
}

func newHTTPInstruments(r *obs.Registry) *httpInstruments {
	m := &httpInstruments{
		latency:  make(map[string]*obs.Histogram, len(servedPaths)+1),
		requests: make(map[string]map[string]*obs.Counter, len(servedPaths)+1),
	}
	for _, path := range append(append([]string(nil), servedPaths...), "other") {
		m.latency[path] = r.NewHistogram("http_request_duration_seconds",
			"Request latency by path.", obs.DefLatencyBuckets, obs.L("path", path))
		byClass := make(map[string]*obs.Counter, len(statusClasses))
		for _, class := range statusClasses {
			byClass[class] = r.NewCounter("http_requests_total",
				"Requests served by path and status class.",
				obs.L("path", path), obs.L("status", class))
		}
		m.requests[path] = byClass
	}
	m.sweepPoints = r.NewHistogram("http_sweep_points",
		"Grid points per accepted sweep request.",
		obs.ExponentialBuckets(1, 4, 7))
	return m
}

func (m *httpInstruments) observe(path string, status int, elapsed time.Duration) {
	if m.latency[path] == nil {
		path = "other"
	}
	m.latency[path].Observe(elapsed.Seconds())
	class := "5xx"
	switch {
	case status < 300:
		class = "2xx"
	case status < 400:
		class = "3xx"
	case status < 500:
		class = "4xx"
	}
	m.requests[path][class].Inc()
}

// statusRecorder captures the response status for metrics and access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the underlying writer so streaming handlers (the SSE
// progress stream) can push events through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the outermost middleware: request ID, span-tree root,
// per-path latency/status metrics, and the slog access log.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx, root := obs.NewTrace(ctx, "request")
		root.SetAttr("path", r.URL.Path)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		root.End()

		elapsed := time.Since(start)
		s.httpm.observe(metricPath(r.URL.Path), rec.status, elapsed)
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("requestId", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
		)
		if r.URL.Query().Get("trace") != "1" && s.log.Enabled(ctx, slog.LevelDebug) {
			// The span tree was not returned to the caller; keep it
			// reachable through the logs (built only when they keep it).
			s.log.LogAttrs(ctx, slog.LevelDebug, "trace",
				slog.String("requestId", reqID),
				slog.Any("tree", root.Tree()),
			)
		}
	})
}

// attachTrace ends the request's root span and embeds its tree in the
// response when the caller asked for it with ?trace=1.
func (s *server) attachTrace(r *http.Request, resp map[string]any) {
	if r.URL.Query().Get("trace") != "1" {
		return
	}
	if root := obs.SpanFromContext(r.Context()); root != nil {
		root.End()
		resp["trace"] = root.Tree()
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Snapshot().WritePrometheus(w)
}

// handleMetricsJSON serves the same snapshot as structured JSON.
func (s *server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// Snapshot-derived views: the legacy JSON blocks keep their wire shape but
// read the registry instead of re-assembling counters by hand.

func engineMetricsFrom(snap obs.Snapshot) engineMetrics {
	hits := uint64(snap.Value("engine_cache_hits_total"))
	misses := uint64(snap.Value("engine_cache_misses_total"))
	deduped := uint64(snap.Value("engine_cache_deduped_total"))
	hitRate := 0.0
	if n := hits + misses + deduped; n > 0 {
		hitRate = float64(hits+deduped) / float64(n)
	}
	return engineMetrics{
		Hits:        hits,
		Misses:      misses,
		Deduped:     deduped,
		PersistHits: uint64(snap.Value("engine_persist_hits_total")),
		HitRate:     hitRate,
		Entries:     int(snap.Value("engine_cache_entries")),
		InFlight:    int(snap.Value("engine_inflight")),
		Parallelism: int(snap.Value("engine_workers")),
	}
}

// engineMetricsOf is engineMetricsFrom read straight from the engine's
// counters: a sync response carries it without a registry snapshot.
func engineMetricsOf(st engine.Stats) engineMetrics {
	return engineMetrics{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Deduped:     st.Deduped,
		PersistHits: st.PersistHits,
		HitRate:     st.HitRate(),
		Entries:     st.Entries,
		InFlight:    st.InFlight,
		Parallelism: st.Parallelism,
	}
}

func laneMetricsFrom(snap obs.Snapshot) laneMetrics {
	return laneMetrics{
		Groups:        uint64(snap.Value("engine_lane_groups_total")),
		Batches:       uint64(snap.Value("engine_lane_batches_total")),
		Lanes:         uint64(snap.Value("engine_lane_lanes_total")),
		DecodeSaved:   uint64(snap.Value("engine_lane_decode_saved_total")),
		LanesPerBatch: int(snap.Value("engine_lanes_per_batch")),
		ExecBatches:   uint64(snap.Value("sim_lane_batches_total")),
		ExecLanes:     uint64(snap.Value("sim_lane_lanes_total")),
		Fallbacks:     uint64(snap.Value("sim_lane_fallbacks_total")),
	}
}

func traceMetricsFrom(snap obs.Snapshot) traceMetrics {
	hits := uint64(snap.Value("trace_store_hits_total"))
	misses := uint64(snap.Value("trace_store_misses_total"))
	hitRate := 0.0
	if n := hits + misses; n > 0 {
		hitRate = float64(hits) / float64(n)
	}
	return traceMetrics{
		Entries:     int(snap.Value("trace_store_entries")),
		Bytes:       int64(snap.Value("trace_store_bytes")),
		BudgetBytes: int64(snap.Value("trace_store_budget_bytes")),
		Hits:        hits,
		Misses:      misses,
		PersistHits: uint64(snap.Value("trace_store_persist_hits_total")),
		Evictions:   uint64(snap.Value("trace_store_evictions_total")),
		Bypasses:    uint64(snap.Value("trace_store_bypasses_total")),
		HitRate:     hitRate,
	}
}
