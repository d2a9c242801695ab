// Package jobs is the async job subsystem behind driserve's /v1/jobs API:
// a bounded priority queue with per-client admission control, real mid-run
// cancellation, per-job deadlines, and drain-aware shutdown.
//
// A job is any context-aware function (the server wraps its run/compare/
// sweep payloads). The manager admits it against queue and per-client
// budgets, queues it by priority, dispatches under a worker limit, and
// keeps a bounded window of finished jobs for result pickup. Submit returns
// at admission; Do admits the same way and waits for the job to settle, so
// a synchronous caller gets the same limits, deadlines and cancellation.
// Cancellation and deadlines act through the job's context, which the
// simulation stack checks at 256-instruction chunk boundaries — so
// cancelling a running sweep stops it within one chunk+batch boundary, not
// at the next HTTP write.
package jobs

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"dricache/internal/obs"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateExpired   State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateExpired:
		return true
	}
	return false
}

// Cancellation causes, visible to job bodies via context.Cause.
var (
	// ErrCancelled marks an explicit cancellation (DELETE /v1/jobs/{id}).
	ErrCancelled = errors.New("jobs: cancelled")
	// ErrExpired marks a deadline expiry.
	ErrExpired = errors.New("jobs: deadline exceeded")
	// ErrShutdown marks cancellation by manager shutdown.
	ErrShutdown = errors.New("jobs: shutting down")
	// ErrNotFound is returned for unknown (or evicted) job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrDuplicate rejects a request naming an ID a live or retained job
	// already holds.
	ErrDuplicate = errors.New("jobs: duplicate job id")
)

// AdmissionError is a structured rejection: why the job was not admitted
// and how long the client should wait before retrying.
type AdmissionError struct {
	// Reason is a stable machine-readable cause: "queue_full",
	// "client_limit", "client_budget", or "shutting_down".
	Reason string
	// RetryAfter is the suggested backoff (the Retry-After header value).
	RetryAfter time.Duration
	msg        string
}

func (e *AdmissionError) Error() string { return e.msg }

// Func is a job body. It must honor ctx: the manager cancels it on
// DELETE, deadline expiry, and shutdown, and the simulation stack aborts
// at the next chunk boundary. The returned value becomes the job result.
type Func func(ctx context.Context) (any, error)

// Request describes one job submission.
type Request struct {
	// ID names the job; empty selects a fresh random ID.
	ID string
	// Kind labels the payload ("run", "compare", "sweep") for snapshots.
	Kind string
	// Client is the admission identity (API key or remote address).
	Client string
	// Priority orders the queue; higher runs first, ties are FIFO.
	Priority int
	// Instructions is the job's cost estimate for the per-client
	// queued-instruction budget (0 = not counted).
	Instructions uint64
	// Deadline bounds the job's total lifetime, queue wait included
	// (0 = none). Capped at Config.MaxDeadline when that is set.
	Deadline time.Duration
	// Run is the job body.
	Run Func
}

// Snapshot is an immutable view of a job, safe to hold after the call.
type Snapshot struct {
	ID           string
	Kind         string
	State        State
	Client       string
	Priority     int
	Instructions uint64
	SubmittedAt  time.Time
	StartedAt    time.Time
	FinishedAt   time.Time
	Deadline     time.Time
	// Result is the job body's return value; set once State is StateDone.
	Result any
	// Error is the failure/cancellation message for terminal non-done states.
	Error string

	// sync marks a Do job: its caller waits for the outcome, so the
	// observer is not told of its transitions.
	sync bool
}

// QueueWait is how long the job waited (or has waited) for a worker.
func (s Snapshot) QueueWait() time.Duration {
	switch {
	case !s.StartedAt.IsZero():
		return s.StartedAt.Sub(s.SubmittedAt)
	case s.State == StateQueued:
		return time.Since(s.SubmittedAt)
	default:
		return 0
	}
}

// job is the manager-internal mutable record.
type job struct {
	snap   Snapshot
	seq    uint64
	run    Func
	cancel context.CancelCauseFunc // non-nil while running
	expiry *time.Timer             // armed while queued with a deadline
	index  int                     // heap index; -1 when not queued
	// base carries the values of the job's context: a Do caller's context
	// without its cancellation (Do cancels through the manager instead),
	// Background for Submit.
	base context.Context
	// wait times the queue wait under the Do caller's span tree; ended at
	// dispatch or when the job settles unstarted.
	wait *obs.Span
	// start is a Do job's hand-off to its waiting caller: dispatch sends
	// the run for the caller to execute on its own goroutine (buffered, so
	// dispatch never blocks), and settling closes it.
	start chan func()
}

// Config bounds a Manager. Zero values select the documented defaults.
type Config struct {
	// Workers caps concurrently running jobs; <= 0 means GOMAXPROCS.
	Workers int
	// MaxQueue caps jobs waiting for a worker; <= 0 means 64.
	MaxQueue int
	// MaxPerClient caps one client's queued+running jobs; <= 0 means 4.
	MaxPerClient int
	// MaxClientInstructions caps the summed instruction estimates of one
	// client's queued jobs; 0 means unlimited.
	MaxClientInstructions uint64
	// Retention caps finished jobs kept for result pickup; <= 0 means 256.
	Retention int
	// MaxDeadline caps per-job deadlines; 0 means uncapped.
	MaxDeadline time.Duration
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 64
}

func (c Config) maxPerClient() int {
	if c.MaxPerClient > 0 {
		return c.MaxPerClient
	}
	return 4
}

func (c Config) retention() int {
	if c.Retention > 0 {
		return c.Retention
	}
	return 256
}

// clientState is one client's admission account.
type clientState struct {
	active       int    // queued + running jobs
	queuedInstrs uint64 // instruction estimates of queued jobs
}

// Manager runs jobs. Construct with NewManager; all methods are safe for
// concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	queue    jobHeap
	jobs     map[string]*job
	clients  map[string]*clientState
	running  int
	done     []string // finished job IDs in completion order, for eviction
	draining bool
	idle     chan struct{} // non-nil during Shutdown; closed when running==0

	// onTransition, when set (SetObserver), is called after every state
	// change outside the lock — the server uses it to publish SSE events.
	onTransition func(Snapshot)

	counters    counters
	waitHist    histogram
	avgRunNanos atomic64 // EWMA of run duration in nanoseconds, for Retry-After
}

// NewManager returns a Manager with the given bounds.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		clients: make(map[string]*clientState),
	}
}

// SetObserver installs fn to be called (outside the manager lock) after
// every job state transition, with the post-transition snapshot.
func (m *Manager) SetObserver(fn func(Snapshot)) {
	m.mu.Lock()
	m.onTransition = fn
	m.mu.Unlock()
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Submit admits, queues, and (capacity permitting) immediately dispatches
// a job, returning its snapshot. A rejection is an *AdmissionError with a
// machine-readable reason and a Retry-After hint, or ErrDuplicate.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	_, notify, err := m.admit(context.Background(), req, false)
	if err != nil {
		return Snapshot{}, err
	}
	m.notifyAll(notify)
	return notify[0], nil
}

// Do admits req exactly like Submit, waits for a worker, runs it on the
// calling goroutine under a context carrying ctx's values (obs spans nest
// under ctx's span tree, and the queue wait is recorded as a
// job_queue_wait span) and returns the terminal snapshot. Cancelling ctx
// cancels the job, queued or running, which then ends StateCancelled. A
// Do job is addressable by ID while live, but it is not retained once
// finished and the observer is not told of it: its caller holds the
// outcome.
func (m *Manager) Do(ctx context.Context, req Request) (Snapshot, error) {
	j, notify, err := m.admit(ctx, req, true)
	if err != nil {
		return Snapshot{}, err
	}
	m.notifyAll(notify)
	stop := context.AfterFunc(ctx, func() { m.cancel(j) })
	// A dispatched job settles by running; one that never starts settles
	// while queued, which closes start without a run.
	if run := <-j.start; run != nil {
		run()
	}
	stop()
	// Nothing writes a settled job's snapshot again.
	return j.snap, nil
}

// admit applies admission control, queues the job and dispatches what
// capacity allows. The returned notices lead with the queued snapshot.
func (m *Manager) admit(ctx context.Context, req Request, sync bool) (*job, []Snapshot, error) {
	if req.Run == nil {
		return nil, nil, errors.New("jobs: nil job body")
	}
	deadline := req.Deadline
	if m.cfg.MaxDeadline > 0 && (deadline <= 0 || deadline > m.cfg.MaxDeadline) {
		deadline = m.cfg.MaxDeadline
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.counters.rejected.Add(1)
		return nil, nil, &AdmissionError{
			Reason:     "shutting_down",
			RetryAfter: time.Second,
			msg:        "jobs: not accepting work: shutting down",
		}
	}
	if _, ok := m.jobs[req.ID]; ok && req.ID != "" {
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("%w %q", ErrDuplicate, req.ID)
	}
	if len(m.queue) >= m.cfg.maxQueue() {
		ra := m.retryAfterLocked()
		m.mu.Unlock()
		m.counters.rejected.Add(1)
		return nil, nil, &AdmissionError{
			Reason:     "queue_full",
			RetryAfter: ra,
			msg:        fmt.Sprintf("jobs: queue full (%d queued)", m.cfg.maxQueue()),
		}
	}
	cs := m.clients[req.Client]
	if cs == nil {
		cs = &clientState{}
		m.clients[req.Client] = cs
	}
	if cs.active >= m.cfg.maxPerClient() {
		ra := m.retryAfterLocked()
		m.mu.Unlock()
		m.counters.rejected.Add(1)
		return nil, nil, &AdmissionError{
			Reason:     "client_limit",
			RetryAfter: ra,
			msg: fmt.Sprintf("jobs: client %q at its concurrency limit (%d jobs)",
				req.Client, m.cfg.maxPerClient()),
		}
	}
	if b := m.cfg.MaxClientInstructions; b > 0 && cs.queuedInstrs+req.Instructions > b {
		ra := m.retryAfterLocked()
		m.mu.Unlock()
		m.counters.rejected.Add(1)
		return nil, nil, &AdmissionError{
			Reason:     "client_budget",
			RetryAfter: ra,
			msg: fmt.Sprintf("jobs: client %q over its queued-instruction budget (%d + %d > %d)",
				req.Client, cs.queuedInstrs, req.Instructions, b),
		}
	}

	id := req.ID
	if id == "" {
		id = newID()
	}
	m.seq++
	j := &job{
		seq:   m.seq,
		run:   req.Run,
		index: -1,
		base:  context.WithoutCancel(ctx),
		snap: Snapshot{
			ID:           id,
			Kind:         req.Kind,
			State:        StateQueued,
			Client:       req.Client,
			Priority:     req.Priority,
			Instructions: req.Instructions,
			SubmittedAt:  time.Now(),
			sync:         sync,
		},
	}
	if sync {
		j.start = make(chan func(), 1)
		_, j.wait = obs.StartSpan(ctx, "job_queue_wait")
	}
	if deadline > 0 {
		j.snap.Deadline = j.snap.SubmittedAt.Add(deadline)
		// Expire promptly even while queued; the timer is stopped when the
		// job dispatches (the running context takes over) or terminates.
		j.expiry = time.AfterFunc(deadline, func() { m.expireQueued(j) })
	}
	m.jobs[id] = j
	cs.active++
	cs.queuedInstrs += req.Instructions
	heap.Push(&m.queue, j)
	m.counters.queued.Add(1)
	// The queued snapshot leads the notification batch so observers see
	// queued before running even when dispatch is immediate.
	queued := j.snap
	notify := append([]Snapshot{queued}, m.dispatchLocked()...)
	m.mu.Unlock()
	return j, notify, nil
}

// dequeueLocked takes a queued job off the queue and releases its client's
// queued-instruction estimate.
func (m *Manager) dequeueLocked(j *job) {
	heap.Remove(&m.queue, j.index)
	if cs := m.clients[j.snap.Client]; cs != nil {
		cs.queuedInstrs -= j.snap.Instructions
	}
}

// retryAfterLocked estimates how long until capacity frees: the queue's
// worth of work at the recent average run time, spread over the workers.
func (m *Manager) retryAfterLocked() time.Duration {
	depth := time.Duration(len(m.queue) + m.running)
	workers := time.Duration(m.cfg.workers())
	avg := time.Duration(m.avgRunNanos.load())
	if avg <= 0 {
		// No run has completed yet, so there is no per-run estimate. The
		// depth/workers clamp below would collapse every early rejection to
		// the same flat 1s and synchronize their retries; instead scale a
		// 1s-per-job guess by the backlog so deeper queues push clients
		// further out even before the EWMA warms up.
		return min(time.Second+time.Second*depth/workers, time.Minute)
	}
	est := avg * depth / workers
	return min(max(est, time.Second), time.Minute)
}

// dispatchLocked starts queued jobs while workers are free, returning the
// snapshots to publish (callers notify outside the lock).
func (m *Manager) dispatchLocked() []Snapshot {
	var started []Snapshot
	for m.running < m.cfg.workers() && len(m.queue) > 0 {
		j := m.queue[0]
		m.dequeueLocked(j)
		if j.expiry != nil {
			j.expiry.Stop()
			j.expiry = nil
		}
		now := time.Now()
		if !j.snap.Deadline.IsZero() && !now.Before(j.snap.Deadline) {
			// Expired while queued and the timer lost the race; settle here.
			started = append(started, m.finishLocked(j, StateExpired, nil, ErrExpired))
			continue
		}
		j.snap.State = StateRunning
		j.snap.StartedAt = now
		j.wait.End()
		m.running++
		m.counters.dispatched.Add(1)
		m.counters.running.Add(1)
		m.waitHist.observe(now.Sub(j.snap.SubmittedAt).Seconds())

		ctx, cancel := context.WithCancelCause(j.base)
		if !j.snap.Deadline.IsZero() {
			var stop context.CancelFunc
			ctx, stop = context.WithDeadlineCause(ctx, j.snap.Deadline, ErrExpired)
			// Release the deadline timer when the job settles.
			prev := cancel
			cancel = func(cause error) { prev(cause); stop() }
		}
		j.cancel = cancel
		started = append(started, j.snap)
		if j.start != nil {
			j.start <- func() { m.runJob(j, ctx, cancel) }
		} else {
			go m.runJob(j, ctx, cancel)
		}
	}
	return started
}

// runJob executes one dispatched job and settles it.
func (m *Manager) runJob(j *job, ctx context.Context, cancel context.CancelCauseFunc) {
	start := time.Now()
	res, err := func() (res any, err error) {
		defer func() {
			if pv := recover(); pv != nil {
				err = fmt.Errorf("jobs: job panicked: %v", pv)
			}
		}()
		return j.run(ctx)
	}()
	cancel(nil)
	m.noteRunTime(time.Since(start))

	state := StateDone
	if err != nil {
		switch cause := context.Cause(ctx); {
		case errors.Is(cause, ErrExpired):
			state = StateExpired
		case errors.Is(cause, ErrCancelled), errors.Is(cause, ErrShutdown):
			state = StateCancelled
		default:
			state = StateFailed
		}
	}

	m.mu.Lock()
	m.running--
	m.counters.running.Add(^uint64(0))
	snap := m.finishLocked(j, state, res, err)
	notify := m.dispatchLocked()
	if m.idle != nil && m.running == 0 {
		close(m.idle)
		m.idle = nil
	}
	m.mu.Unlock()
	m.notifyAll(append([]Snapshot{snap}, notify...))
}

// noteRunTime folds one run duration into the EWMA behind Retry-After.
func (m *Manager) noteRunTime(d time.Duration) {
	const alpha = 4 // new sample weight 1/alpha
	for {
		old := m.avgRunNanos.load()
		next := d.Nanoseconds()
		if old > 0 {
			next = old + (next-old)/alpha
		}
		if m.avgRunNanos.cas(old, next) {
			return
		}
	}
}

// finishLocked settles a job into a terminal state, releases its client
// account, applies retention, and returns the snapshot to publish.
func (m *Manager) finishLocked(j *job, state State, res any, err error) Snapshot {
	j.snap.State = state
	j.snap.FinishedAt = time.Now()
	if j.expiry != nil {
		j.expiry.Stop()
		j.expiry = nil
	}
	j.cancel = nil
	j.run = nil
	j.wait.End()
	switch state {
	case StateDone:
		j.snap.Result = res
		m.counters.completed.Add(1)
	case StateFailed:
		j.snap.Error = err.Error()
		m.counters.failed.Add(1)
	case StateCancelled:
		j.snap.Error = errMessage(err, "cancelled")
		m.counters.cancelled.Add(1)
	case StateExpired:
		j.snap.Error = errMessage(err, "deadline exceeded")
		m.counters.expired.Add(1)
	}
	if cs := m.clients[j.snap.Client]; cs != nil {
		cs.active--
		if cs.active == 0 && cs.queuedInstrs == 0 {
			delete(m.clients, j.snap.Client)
		}
	}
	if j.start != nil {
		// A Do job is not retained: its caller holds the outcome.
		delete(m.jobs, j.snap.ID)
		close(j.start)
		return j.snap
	}
	m.done = append(m.done, j.snap.ID)
	for len(m.done) > m.cfg.retention() {
		delete(m.jobs, m.done[0])
		m.done = m.done[1:]
	}
	return j.snap
}

func errMessage(err error, fallback string) string {
	if err != nil {
		return err.Error()
	}
	return fallback
}

func (m *Manager) notifyAll(snaps []Snapshot) {
	m.mu.Lock()
	fn := m.onTransition
	m.mu.Unlock()
	if fn == nil {
		return
	}
	for _, s := range snaps {
		if !s.sync {
			fn(s)
		}
	}
}

// expireQueued is the queued-deadline timer body: expire the job if it is
// still waiting for a worker.
func (m *Manager) expireQueued(j *job) {
	m.mu.Lock()
	if j.snap.State != StateQueued {
		m.mu.Unlock()
		return
	}
	m.dequeueLocked(j)
	snap := m.finishLocked(j, StateExpired, nil, ErrExpired)
	m.mu.Unlock()
	m.notifyAll([]Snapshot{snap})
}

// Get returns the job's current snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snap, nil
}

// Cancel cancels a job: a queued job settles immediately; a running job's
// context is cancelled with ErrCancelled and the job settles when its body
// returns (the simulation stack aborts at the next chunk boundary). The
// returned snapshot reflects the state at return; cancelling an already
// terminal job is a no-op reporting that state.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return m.cancel(j), nil
}

// cancel is Cancel on a job record.
func (m *Manager) cancel(j *job) Snapshot {
	m.mu.Lock()
	switch j.snap.State {
	case StateQueued:
		m.dequeueLocked(j)
		snap := m.finishLocked(j, StateCancelled, nil, ErrCancelled)
		m.mu.Unlock()
		m.notifyAll([]Snapshot{snap})
		return snap
	case StateRunning:
		cancel := j.cancel
		snap := j.snap
		m.mu.Unlock()
		if cancel != nil {
			cancel(ErrCancelled)
		}
		return snap
	default:
		snap := j.snap
		m.mu.Unlock()
		return snap
	}
}

// List returns snapshots of every retained job, newest submission first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snap)
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b Snapshot) int {
		return b.SubmittedAt.Compare(a.SubmittedAt)
	})
	return out
}

// Shutdown stops admission, cancels every queued job, and drains running
// ones: it waits for them to finish until ctx is done, then cancels their
// contexts (cause ErrShutdown) and waits for the bodies to return — which
// the chunk-boundary checks make prompt. Returns ctx.Err() if the drain
// deadline forced cancellation, nil if everything drained naturally.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	var notify []Snapshot
	for len(m.queue) > 0 {
		j := m.queue[0]
		m.dequeueLocked(j)
		notify = append(notify, m.finishLocked(j, StateCancelled, nil, ErrShutdown))
	}
	var idle chan struct{}
	if m.running > 0 {
		idle = make(chan struct{})
		m.idle = idle
	}
	m.mu.Unlock()
	m.notifyAll(notify)
	if idle == nil {
		return nil
	}

	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}

	// Drain deadline hit: force-cancel what is still running, then wait for
	// the bodies to observe it and settle.
	m.mu.Lock()
	var cancels []context.CancelCauseFunc
	for _, j := range m.jobs {
		if j.snap.State == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c(ErrShutdown)
	}
	<-idle
	return ctx.Err()
}
