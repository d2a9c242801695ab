package main

// Live progress streaming. Every job — a /v1/run, /v1/compare or
// /v1/sweep request once it starts, keyed by its request ID, or a
// /v1/jobs submission, keyed by its job ID — has a progress entry; while
// the simulation is in flight, interval heartbeats from the flight
// recorder (timeline.WithSink) and sweep-point completions from the
// engine's batch scheduler (engine.WithProgress) are published into the
// entry, and a final "done" event closes it. GET /v1/runs/{id}/progress
// and GET /v1/jobs/{id}/progress serve the entry as a Server-Sent Events
// stream: buffered events replay first, then live events until done or
// client disconnect. Completed entries are retained (bounded) so a stream
// opened after a fast run still observes its events.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dricache/internal/engine"
	"dricache/internal/timeline"
)

const (
	// maxProgressEntries bounds retained (including completed) entries;
	// the oldest completed entries are evicted first.
	maxProgressEntries = 256
	// maxProgressEvents bounds each entry's replay buffer. Interval
	// heartbeats beyond it are dropped (and counted); the terminal "done"
	// event is always delivered.
	maxProgressEvents = 1024
	// subscriberBuffer is each live subscriber's channel depth; a
	// subscriber that stalls past it is dropped from the fan-out (its
	// channel closed) so one dead connection can never block the
	// simulation or starve other subscribers. The replay buffer keeps the
	// history, so a dropped client re-opens the stream and catches up.
	subscriberBuffer = 64
)

// sseEvent is one named progress event; Data is its JSON payload.
type sseEvent struct {
	Type string
	Data []byte
}

// progressEntry is the event history and live-subscriber set of one job.
type progressEntry struct {
	id string
	// idKey names the identity field stamped on every event payload:
	// "requestId" for synchronous requests, "jobId" for async jobs.
	idKey string

	mu      sync.Mutex
	events  []sseEvent
	dropped uint64
	done    bool
	subs    map[chan sseEvent]struct{}
}

// publish appends one event and fans it out to live subscribers.
func (e *progressEntry) publish(typ string, payload map[string]any) {
	payload[e.idKey] = e.id
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	ev := sseEvent{Type: typ, Data: data}
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return
	}
	if len(e.events) >= maxProgressEvents && typ != "done" {
		e.dropped++
		e.mu.Unlock()
		return
	}
	e.events = append(e.events, ev)
	if typ == "done" {
		e.done = true
	}
	for ch := range e.subs {
		select {
		case ch <- ev:
		default:
			// The subscriber has not drained subscriberBuffer events: it is
			// stalled (dead connection, blocked proxy). Drop it rather than
			// skip events — a silently gapped stream is worse than a closed
			// one the client re-opens against the replay buffer. The close
			// is the stream handler's signal.
			delete(e.subs, ch)
			close(ch)
		}
	}
	e.mu.Unlock()
}

// progressHub indexes progress entries by request or job ID.
type progressHub struct {
	mu      sync.Mutex
	entries map[string]*progressEntry
	order   []string
}

func newProgressHub() *progressHub {
	return &progressHub{entries: make(map[string]*progressEntry)}
}

// entry returns the live entry for id, creating one (events stamped with
// idKey: "requestId" or "jobId") when there is none or the retained one
// has finished — a request ID reused after its run ended starts a fresh
// stream. Creation evicts the oldest entries beyond the retention bound.
// Callers must not ask for an entry after their own job's "done": the
// job manager's transition observer creates only on the queued
// transition, which precedes the job body.
func (h *progressHub) entry(id, idKey string) *progressEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.entries[id]
	if old != nil && !old.finished() {
		return old
	}
	e := &progressEntry{id: id, idKey: idKey, subs: make(map[chan sseEvent]struct{})}
	if old == nil {
		h.order = append(h.order, id)
	}
	h.entries[id] = e
	h.evictLocked()
	return e
}

// evictLocked drops the oldest entries beyond the retention bound.
func (h *progressHub) evictLocked() {
	for len(h.order) > maxProgressEntries {
		victim := h.order[0]
		h.order = h.order[1:]
		delete(h.entries, victim)
	}
}

// lookup returns the entry for id, or nil.
func (h *progressHub) lookup(id string) *progressEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entries[id]
}

// finished reports whether the entry's "done" event has been published.
func (e *progressEntry) finished() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// finish publishes the terminal event and marks the entry done.
func (e *progressEntry) finish(payload map[string]any) {
	if payload == nil {
		payload = map[string]any{}
	}
	e.mu.Lock()
	dropped := e.dropped
	e.mu.Unlock()
	if dropped > 0 {
		payload["droppedEvents"] = dropped
	}
	e.publish("done", payload)
}

// subscribe returns the entry's buffered events so far plus a live channel
// for what follows; the caller must unsubscribe the channel.
func (e *progressEntry) subscribe() ([]sseEvent, chan sseEvent, bool) {
	ch := make(chan sseEvent, subscriberBuffer)
	e.mu.Lock()
	defer e.mu.Unlock()
	buffered := append([]sseEvent(nil), e.events...)
	if e.done {
		return buffered, nil, true
	}
	e.subs[ch] = struct{}{}
	return buffered, ch, false
}

func (e *progressEntry) unsubscribe(ch chan sseEvent) {
	e.mu.Lock()
	delete(e.subs, ch)
	e.mu.Unlock()
}

// withProgressSinks wires the interval and sweep-point hooks of one job
// body's context to publish into ent: interval heartbeats from any
// timeline-enabled lane and sweep-point completions from the engine's
// batch scheduler.
func withProgressSinks(ctx context.Context, ent *progressEntry) context.Context {
	ctx = timeline.WithSink(ctx, func(p timeline.Point) {
		ent.publish("interval", map[string]any{
			"endInstructions": p.EndInstructions,
			"ipc":             p.IPC,
			"l1iMisses":       p.L1IMisses,
			"activeFraction":  p.L1IActiveFraction,
			"activeSets":      p.ActiveSets,
			"activeWays":      p.ActiveWays,
			"energyNJ":        p.EnergyNJ,
		})
	})
	ctx = engine.WithProgress(ctx, func(done, total int, benchmark string) {
		ent.publish("sweep", map[string]any{
			"done":      done,
			"total":     total,
			"benchmark": benchmark,
		})
	})
	return ctx
}

// handleProgress serves GET /v1/runs/{id}/progress and
// GET /v1/jobs/{id}/progress: the progress entry of a synchronous request
// (by request ID) or of a submitted job (by job ID, with its state
// transitions) as an SSE stream.
func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ent := s.progress.lookup(id)
	if ent == nil {
		writeError(w, http.StatusNotFound, "no run, sweep or job in progress (or retained) with id %q", id)
		return
	}
	streamProgress(w, r, ent)
}

// streamProgress serves one progress entry as a Server-Sent Events stream:
// buffered events replay first, then live events until done or disconnect.
func streamProgress(w http.ResponseWriter, r *http.Request, ent *progressEntry) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	write := func(ev sseEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
	}
	buffered, live, done := ent.subscribe()
	for _, ev := range buffered {
		write(ev)
	}
	fl.Flush()
	if done {
		return
	}
	defer ent.unsubscribe(live)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				// The hub dropped this subscriber for stalling. Say so and
				// end the stream; the client re-opens and replays.
				write(sseEvent{Type: "dropped", Data: []byte(`{"reason":"slow consumer"}`)})
				fl.Flush()
				return
			}
			write(ev)
			fl.Flush()
			if ev.Type == "done" {
				return
			}
		}
	}
}
