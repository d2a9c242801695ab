package main

// The job API. Every simulation request is a job on the admission-
// controlled manager. POST /v1/run, /v1/compare and /v1/sweep take one
// payload, run it as a job named by the request ID and wait for it
// (handleSync). POST /v1/jobs wraps the same payloads in an envelope and
// returns 202 with a job ID immediately; GET /v1/jobs/{id} serves status
// and (once done) the result, DELETE /v1/jobs/{id} cancels for real — the
// simulation stack aborts at the next chunk boundary, and aborted points
// are never cached — and GET /v1/jobs/{id}/progress streams the job's SSE
// progress (the same interval/sweep events as /v1/runs/{id}/progress,
// keyed by job ID, plus per-state transition events). Rejections are
// structured 429s with a Retry-After estimated from the queue depth and
// recent run times.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"dricache/internal/exp"
	"dricache/internal/jobs"
	"dricache/internal/obs"
	"dricache/internal/sim"
)

// jobSubmitRequest is the POST /v1/jobs envelope: exactly one payload
// (run, compare, or sweep — the same shapes the synchronous endpoints
// take) plus job-level knobs.
type jobSubmitRequest struct {
	// Kind optionally names the payload ("run", "compare", "sweep"); when
	// set it must match the payload actually provided.
	Kind string `json:"kind"`
	// Priority orders the queue; higher runs first, ties are FIFO.
	Priority int `json:"priority"`
	// TimeoutSeconds bounds the job's total lifetime, queue wait included
	// (0 = server default; ?timeout= on the submit URL overrides). Negative
	// and out-of-range values are a 400.
	TimeoutSeconds float64 `json:"timeoutSeconds"`
	// Timeline opts a run/compare job into interval recording, like
	// ?timeline=1 on the synchronous endpoints.
	Timeline bool `json:"timeline"`

	Run     *runRequest   `json:"run"`
	Compare *runRequest   `json:"compare"`
	Sweep   *sweepRequest `json:"sweep"`
}

// jobView is the wire form of a job snapshot.
type jobView struct {
	ID               string    `json:"id"`
	Kind             string    `json:"kind"`
	State            string    `json:"state"`
	Client           string    `json:"client,omitempty"`
	Priority         int       `json:"priority,omitempty"`
	Instructions     uint64    `json:"instructions,omitempty"`
	SubmittedAt      time.Time `json:"submittedAt"`
	StartedAt        time.Time `json:"startedAt,omitzero"`
	FinishedAt       time.Time `json:"finishedAt,omitzero"`
	Deadline         time.Time `json:"deadline,omitzero"`
	QueueWaitSeconds float64   `json:"queueWaitSeconds"`
	ProgressURL      string    `json:"progressUrl"`
	Result           any       `json:"result,omitempty"`
	Error            string    `json:"error,omitempty"`
}

func jobViewOf(snap jobs.Snapshot) jobView {
	return jobView{
		ID:               snap.ID,
		Kind:             snap.Kind,
		State:            string(snap.State),
		Client:           snap.Client,
		Priority:         snap.Priority,
		Instructions:     snap.Instructions,
		SubmittedAt:      snap.SubmittedAt,
		StartedAt:        snap.StartedAt,
		FinishedAt:       snap.FinishedAt,
		Deadline:         snap.Deadline,
		QueueWaitSeconds: snap.QueueWait().Seconds(),
		ProgressURL:      "/v1/jobs/" + snap.ID + "/progress",
		Result:           snap.Result,
		Error:            snap.Error,
	}
}

// clientID is the admission identity of one request: the X-API-Key header
// when present, otherwise the remote host (port stripped, so one client's
// connections share an account).
func clientID(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return "key:" + key
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// parseTimeout parses a ?timeout= value: a Go duration ("30s", "2m") or a
// bare number of seconds.
func parseTimeout(v string) (time.Duration, error) {
	if d, err := time.ParseDuration(v); err == nil {
		if d < 0 {
			return 0, fmt.Errorf("timeout %q is negative", v)
		}
		return d, nil
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid timeout %q (want a duration like 30s or a number of seconds)", v)
	}
	return secondsDuration(secs)
}

// secondsDuration converts a timeout in seconds to a Duration, rejecting
// NaN, negative values and values beyond time.Duration's range (about 292
// years), which would otherwise wrap to a negative "no deadline".
func secondsDuration(secs float64) (time.Duration, error) {
	d := secs * float64(time.Second)
	if !(d >= 0 && d < math.MaxInt64) {
		return 0, fmt.Errorf("invalid timeout %v seconds (want 0 to %.0f)",
			secs, float64(math.MaxInt64)/float64(time.Second))
	}
	return time.Duration(d), nil
}

// buildJob validates a submit envelope into an admission request and the
// job body. Validation is eager — a bad payload is a 400 at submit time,
// never a failed job — and the body closes over fully-built configs, so
// all it does under the job's context is simulate.
func (s *server) buildJob(req jobSubmitRequest) (jobs.Request, error) {
	kind, payloads := "", 0
	if req.Run != nil {
		kind, payloads = "run", payloads+1
	}
	if req.Compare != nil {
		kind, payloads = "compare", payloads+1
	}
	if req.Sweep != nil {
		kind, payloads = "sweep", payloads+1
	}
	if payloads != 1 {
		return jobs.Request{}, fmt.Errorf("set exactly one of run, compare, or sweep (got %d)", payloads)
	}
	if req.Kind != "" && req.Kind != kind {
		return jobs.Request{}, fmt.Errorf("kind %q does not match the %s payload", req.Kind, kind)
	}

	deadline, err := secondsDuration(req.TimeoutSeconds)
	if err != nil {
		return jobs.Request{}, fmt.Errorf("timeoutSeconds: %w", err)
	}
	jr := jobs.Request{
		Kind:     kind,
		Priority: req.Priority,
		Deadline: deadline,
	}
	switch kind {
	case "run":
		cfg, prog, err := s.buildRun(*req.Run)
		if err != nil {
			return jobs.Request{}, err
		}
		if req.Timeline {
			cfg.Timeline.Enabled = true
		}
		jr.Instructions = cfg.Instructions
		jr.Run = func(ctx context.Context) (any, error) {
			res, cached, err := s.eng.RunCachedCtx(ctx, cfg, prog)
			if err != nil {
				return nil, err
			}
			resp := map[string]any{"result": summarize(res), "cached": cached}
			if cfg.Timeline.Enabled {
				resp["timeline"] = res.Timeline
			}
			return resp, nil
		}
	case "compare":
		cfg, prog, err := s.buildRun(*req.Compare)
		if err != nil {
			return jobs.Request{}, err
		}
		if req.Timeline {
			cfg.Timeline.Enabled = true
		}
		if cfg == sim.BaselineSimConfig(cfg) {
			return jobs.Request{}, errors.New(
				"compare requires a DRI or policy configuration (set cache.dri and/or l2.dri, or a policy)")
		}
		// Both sides simulate, so the estimate is twice the run budget.
		jr.Instructions = 2 * cfg.Instructions
		jr.Run = func(ctx context.Context) (any, error) {
			cmp, cacheOutcome, err := s.eng.CompareSimCachedCtx(ctx, cfg, prog)
			if err != nil {
				return nil, err
			}
			resp := map[string]any{
				"comparison": summarizeComparison(cmp),
				"cached": map[string]bool{
					"baseline": cacheOutcome.BaselineCached,
					"dri":      cacheOutcome.DRICached,
				},
			}
			if cfg.Timeline.Enabled {
				resp["timeline"] = map[string]any{
					"baseline": cmp.Conv.Timeline,
					"dri":      cmp.DRI.Timeline,
				}
			}
			return resp, nil
		}
	case "sweep":
		plan, err := s.buildSweep(*req.Sweep)
		if err != nil {
			return jobs.Request{}, err
		}
		s.httpm.sweepPoints.Observe(float64(plan.points))
		// Each point compares against its baseline: two runs per point.
		jr.Instructions = 2 * uint64(plan.points) * plan.scale.Instructions
		jr.Run = func(ctx context.Context) (any, error) {
			results, err := exp.NewRunnerOn(s.eng, plan.scale).RunAllCtx(ctx, plan.tasks)
			if err != nil {
				return nil, err
			}
			return map[string]any{"points": plan.points, "rows": sweepRows(results)}, nil
		}
	}
	return jr, nil
}

// prepareJob builds the job of a decoded envelope, applies the request
// URL's ?timeout= and names the client; on a bad payload it writes the 400
// and returns false.
func (s *server) prepareJob(w http.ResponseWriter, r *http.Request, req jobSubmitRequest) (jobs.Request, bool) {
	jr, err := s.buildJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return jobs.Request{}, false
	}
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := parseTimeout(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return jobs.Request{}, false
		}
		jr.Deadline = d
	}
	jr.Client = clientID(r)
	return jr, true
}

// writeAdmitError reports a job the manager did not admit: a structured
// 429 carrying Retry-After, a 409 for an ID a live or retained job holds,
// a 400 otherwise.
func writeAdmitError(w http.ResponseWriter, err error) {
	var adm *jobs.AdmissionError
	switch {
	case errors.As(err, &adm):
		secs := int(math.Ceil(adm.RetryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":             adm.Error(),
			"status":            http.StatusTooManyRequests,
			"reason":            adm.Reason,
			"retryAfterSeconds": secs,
		})
	case errors.Is(err, jobs.ErrDuplicate):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleJobSubmit serves POST /v1/jobs: validate, admit, and return 202
// with the queued snapshot — or a structured 429 carrying Retry-After.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	if status, err := decodeBody(w, r, &req); status != 0 {
		writeError(w, status, "%v", err)
		return
	}
	jr, ok := s.prepareJob(w, r, req)
	if !ok {
		return
	}

	// The body learns its job ID (assigned by the manager during Submit)
	// through this channel, then publishes progress into the job's entry.
	// Waiting for it also orders the body after Submit's queued notice,
	// which creates the entry.
	ids := make(chan string, 1)
	body := jr.Run
	jr.Run = func(ctx context.Context) (any, error) {
		ent := s.progress.entry(<-ids, "jobId")
		return body(withProgressSinks(ctx, ent))
	}

	snap, err := s.jobs.Submit(jr)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	ids <- snap.ID
	writeJSON(w, http.StatusAccepted, map[string]any{"job": jobViewOf(snap)})
}

// handleSync serves POST /v1/run, /v1/compare and /v1/sweep: the body is
// the payload of a job of that kind (?timeline=1 sets the envelope's
// timeline flag), which runs on the job manager — under the same
// admission control, deadlines (?timeout=) and cancellation as
// POST /v1/jobs — named by the request ID, and is waited for. The
// request's context is the job's: client disconnect cancels the job, and
// its spans nest under the request's span tree. The response is the job's
// result plus the engine's counters.
func (s *server) handleSync(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		// End is first-write-wins: the deferred call closes the span on
		// every validation error return, the explicit call before Do on
		// the success path.
		_, vsp := obs.StartSpan(ctx, "validate")
		defer vsp.End()
		req := jobSubmitRequest{Kind: kind, Timeline: r.URL.Query().Get("timeline") == "1"}
		// Decoding into the envelope's pointer field allocates the payload.
		var payload any = &req.Sweep
		switch kind {
		case "run":
			payload = &req.Run
		case "compare":
			payload = &req.Compare
		}
		if status, err := decodeBody(w, r, payload); status != 0 {
			writeError(w, status, "%v", err)
			return
		}
		jr, ok := s.prepareJob(w, r, req)
		if !ok {
			return
		}
		vsp.End()

		id := obs.RequestIDFrom(ctx)
		jr.ID = id
		body := jr.Run
		jr.Run = func(ctx context.Context) (any, error) {
			ent := s.progress.entry(id, "requestId")
			outcome := "aborted"
			defer func() { ent.finish(map[string]any{"outcome": outcome}) }()
			res, err := body(withProgressSinks(ctx, ent))
			if err == nil {
				outcome = "ok"
			}
			return res, err
		}
		snap, err := s.jobs.Do(ctx, jr)
		if err != nil {
			writeAdmitError(w, err)
			return
		}
		switch snap.State {
		case jobs.StateDone:
		case jobs.StateFailed:
			writeError(w, http.StatusInternalServerError, "%s failed: %s", kind, snap.Error)
			return
		default:
			writeError(w, http.StatusServiceUnavailable, "%s %s: %s", kind, snap.State, snap.Error)
			return
		}
		// A Do job is not retained, so its result map is this response's.
		resp := snap.Result.(map[string]any)
		resp["engine"] = engineMetricsFrom(s.reg.Snapshot())
		s.attachTrace(r, resp)
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleJobGet serves GET /v1/jobs/{id}: current status, and the result
// once the job is done.
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no job (retained) with id %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": jobViewOf(snap)})
}

// handleJobCancel serves DELETE /v1/jobs/{id}. A queued job settles
// immediately; a running job's context is cancelled and the simulation
// aborts at the next chunk boundary, so the returned snapshot may still
// read "running" — poll GET until terminal.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no job (retained) with id %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": jobViewOf(snap)})
}

// handleJobList serves GET /v1/jobs: every retained job, newest first,
// plus the manager's admission counters.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	views := make([]jobView, 0, len(snaps))
	for _, snap := range snaps {
		views = append(views, jobViewOf(snap))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":  views,
		"stats": s.jobs.Stats(),
	})
}

// publishJobTransition is the manager's observer: every state change of
// a submitted job becomes a "state" SSE event on the job's progress entry,
// and terminal states close the entry with a "done" event. Only the queued
// notice creates the entry: a later notice can arrive after the terminal
// one (another goroutine dispatched the job) and must not open a fresh
// stream that nothing would finish.
func (s *server) publishJobTransition(snap jobs.Snapshot) {
	ent := s.progress.lookup(snap.ID)
	if snap.State == jobs.StateQueued {
		ent = s.progress.entry(snap.ID, "jobId")
	}
	if ent == nil {
		return
	}
	payload := map[string]any{"state": string(snap.State), "kind": snap.Kind}
	if snap.Error != "" {
		payload["error"] = snap.Error
	}
	ent.publish("state", payload)
	if snap.State.Terminal() {
		ent.finish(map[string]any{"outcome": string(snap.State)})
	}
}
