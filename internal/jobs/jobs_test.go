package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dricache/internal/obs"
)

// waitState polls until the job reaches a terminal state or the deadline.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s settled as %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s within 5s", id, want)
	return Snapshot{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	snap, err := m.Submit(Request{Kind: "run", Client: "a", Run: func(ctx context.Context) (any, error) {
		return "payload", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateDone)
	if got.Result != "payload" {
		t.Fatalf("result = %v, want payload", got.Result)
	}
	if got.Kind != "run" || got.Client != "a" {
		t.Fatalf("snapshot lost metadata: %+v", got)
	}
	s := m.Stats()
	if s.Completed != 1 || s.Queued != 1 {
		t.Fatalf("stats = %+v, want 1 queued / 1 completed", s)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan struct{})
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateCancelled)
	if got.Error == "" {
		t.Fatal("cancelled job has empty error")
	}
	if m.Stats().Cancelled != 1 {
		t.Fatalf("stats = %+v, want 1 cancelled", m.Stats())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 8})
	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		t.Error("cancelled queued job ran")
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", got.State)
	}
	close(block)
}

func TestPriorityOrdersQueue(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 16})
	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []int
	mk := func(tag int) Func {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return nil, nil
		}
	}
	var last Snapshot
	for i, prio := range []int{0, 5, 1} {
		s, err := m.Submit(Request{Client: "a", Priority: prio, Run: mk(i)})
		if err != nil {
			t.Fatal(err)
		}
		last = s
	}
	_ = last
	close(block)
	// All three queued jobs run on the single worker in priority order.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("execution order %v, want [1 2 0] (priority 5, 1, 0)", order)
	}
}

func TestQueueFullRejects(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxQueue: 1, MaxPerClient: 16})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	body := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	if _, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(Request{Client: "a", Run: body}); err != nil {
		t.Fatalf("first queued submit rejected: %v", err)
	}
	_, err := m.Submit(Request{Client: "a", Run: body})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "queue_full" {
		t.Fatalf("err = %v, want AdmissionError queue_full", err)
	}
	if adm.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", adm.RetryAfter)
	}
	if m.Stats().Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 rejected", m.Stats())
	}
}

// TestRetryAfterScalesWithDepthBeforeFirstCompletion pins the cold-start
// Retry-After fallback: with no completed run (empty duration EWMA) the hint
// must still grow with the current backlog, so a burst of early rejections
// doesn't tell every client to come back at the same flat second.
func TestRetryAfterScalesWithDepthBeforeFirstCompletion(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxQueue: 64, MaxPerClient: 1})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if _, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started

	reject := func() time.Duration {
		t.Helper()
		_, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }})
		var adm *AdmissionError
		if !errors.As(err, &adm) || adm.Reason != "client_limit" {
			t.Fatalf("err = %v, want AdmissionError client_limit", err)
		}
		return adm.RetryAfter
	}

	shallow := reject() // depth 1: just the running job
	if shallow <= time.Second {
		t.Fatalf("shallow RetryAfter = %v, want > 1s (flat fallback resurfaced)", shallow)
	}
	// Deepen the backlog with other clients' queued jobs; nothing has
	// completed, so the EWMA is still empty.
	for i := 0; i < 8; i++ {
		client := fmt.Sprintf("filler-%d", i)
		if _, err := m.Submit(Request{Client: client, Run: func(ctx context.Context) (any, error) {
			<-block
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	deep := reject() // depth 9: one running + eight queued
	if deep <= shallow {
		t.Fatalf("RetryAfter did not scale with depth: shallow %v, deep %v", shallow, deep)
	}
}

func TestPerClientLimit(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 1})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if _, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	_, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "client_limit" {
		t.Fatalf("same-client err = %v, want AdmissionError client_limit", err)
	}
	// A different client is unaffected.
	if _, err := m.Submit(Request{Client: "b", Run: func(ctx context.Context) (any, error) { return nil, nil }}); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
}

func TestClientInstructionBudget(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 16, MaxClientInstructions: 100})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	// Occupy the worker so later submissions stay queued (budget counts
	// queued instructions only).
	if _, err := m.Submit(Request{Client: "a", Instructions: 90, Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(Request{Client: "a", Instructions: 60, Run: func(ctx context.Context) (any, error) { return nil, nil }}); err != nil {
		t.Fatalf("within budget rejected: %v", err)
	}
	_, err := m.Submit(Request{Client: "a", Instructions: 60, Run: func(ctx context.Context) (any, error) { return nil, nil }})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "client_budget" {
		t.Fatalf("err = %v, want AdmissionError client_budget", err)
	}
}

func TestDeadlineExpiresRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	snap, err := m.Submit(Request{Client: "a", Deadline: 20 * time.Millisecond,
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateExpired)
	if got.Error == "" {
		t.Fatal("expired job has empty error")
	}
	if m.Stats().Expired != 1 {
		t.Fatalf("stats = %+v, want 1 expired", m.Stats())
	}
}

func TestDeadlineExpiresQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 8})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if _, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	snap, err := m.Submit(Request{Client: "a", Deadline: 20 * time.Millisecond,
		Run: func(ctx context.Context) (any, error) {
			t.Error("expired queued job ran")
			return nil, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateExpired)
}

func TestMaxDeadlineCapsUnboundedJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxDeadline: 10 * time.Millisecond})
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Deadline.IsZero() {
		t.Fatal("MaxDeadline did not stamp a deadline on an unbounded job")
	}
	waitState(t, m, snap.ID, StateExpired)
}

func TestRetentionEvictsOldest(t *testing.T) {
	m := NewManager(Config{Workers: 1, Retention: 2, MaxPerClient: 16})
	var ids []string
	for i := 0; i < 4; i++ {
		snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return i, nil }})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, snap.ID, StateDone)
		ids = append(ids, snap.ID)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job still retained (err %v), want ErrNotFound", err)
	}
	if _, err := m.Get(ids[3]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if got := m.Stats().Retained; got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		return nil, errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateFailed)
	if got.Error != "boom" {
		t.Fatalf("error = %q, want boom", got.Error)
	}
}

func TestJobPanicBecomesFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		panic("kaboom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateFailed)
	if got.Error == "" {
		t.Fatal("panicked job has empty error")
	}
}

func TestShutdownDrainsAndCancelsQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	running, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "done", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		t.Error("queued job ran during shutdown")
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v, want nil (drained naturally)", err)
	}
	if got, _ := m.Get(running.ID); got.State != StateDone {
		t.Fatalf("running job state = %s, want done", got.State)
	}
	if got, _ := m.Get(queued.ID); got.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", got.State)
	}
	// Admission is closed.
	_, err = m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "shutting_down" {
		t.Fatalf("post-shutdown submit err = %v, want AdmissionError shutting_down", err)
	}
}

func TestShutdownForceCancelsAtDeadline(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan struct{})
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (forced drain)", err)
	}
	got, _ := m.Get(snap.ID)
	if got.State != StateCancelled {
		t.Fatalf("forced job state = %s, want cancelled", got.State)
	}
}

func TestObserverSeesTransitions(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	var mu sync.Mutex
	var states []State
	m.SetObserver(func(s Snapshot) {
		mu.Lock()
		states = append(states, s.State)
		mu.Unlock()
	})
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(states)
		mu.Unlock()
		if n >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) < 3 || states[0] != StateQueued || states[1] != StateRunning || states[len(states)-1] != StateDone {
		t.Fatalf("observed transitions %v, want [queued running ... done]", states)
	}
}

func TestRegisterMetricsExposesSeries(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg)
	snap, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)
	s := reg.Snapshot()
	for name, want := range map[string]float64{
		"jobs_queued_total":    1,
		"jobs_running_total":   1,
		"jobs_completed_total": 1,
		"jobs_rejected_total":  0,
		"jobs_queue_depth":     0,
	} {
		if got := s.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	fam, ok := s.Family("jobs_queue_wait_seconds")
	if !ok {
		t.Fatal("jobs_queue_wait_seconds not registered")
	}
	_ = fam
}

func TestListNewestFirst(t *testing.T) {
	m := NewManager(Config{Workers: 2, MaxPerClient: 16})
	for i := 0; i < 3; i++ {
		snap, err := m.Submit(Request{Client: fmt.Sprintf("c%d", i), Run: func(ctx context.Context) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, snap.ID, StateDone)
		time.Sleep(2 * time.Millisecond)
	}
	l := m.List()
	if len(l) != 3 {
		t.Fatalf("List len = %d, want 3", len(l))
	}
	for i := 1; i < len(l); i++ {
		if l[i].SubmittedAt.After(l[i-1].SubmittedAt) {
			t.Fatalf("List not newest-first at %d", i)
		}
	}
}

// TestExpiredAtDispatchReleasesBudget: a job whose deadline passes while it
// waits, and which dispatch (not its timer) then settles as expired, gives
// its queued instructions back to its client's budget.
func TestExpiredAtDispatchReleasesBudget(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 8, MaxClientInstructions: 100})
	block := make(chan struct{})
	started := make(chan struct{})
	running, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Request{Client: "a", Instructions: 100, Deadline: time.Millisecond,
		Run: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	// Disarm the queued-deadline timer so the expiry is found at dispatch.
	m.mu.Lock()
	m.jobs[queued.ID].expiry.Stop()
	m.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	close(block)
	waitState(t, m, running.ID, StateDone)
	waitState(t, m, queued.ID, StateExpired)

	snap, err := m.Submit(Request{Client: "a", Instructions: 100, Run: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("budget still held by the expired job: %v", err)
	}
	waitState(t, m, snap.ID, StateDone)
}
