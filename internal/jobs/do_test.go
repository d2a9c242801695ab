package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dricache/internal/obs"
)

type ctxKey struct{}

// TestDoRunsAndIsNotRetained: Do runs the body under a context carrying
// the caller's values, returns the terminal snapshot, and neither retains
// the job nor tells the observer about it.
func TestDoRunsAndIsNotRetained(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	var observed atomic.Int64
	m.SetObserver(func(Snapshot) { observed.Add(1) })
	ctx := context.WithValue(context.Background(), ctxKey{}, "caller")
	snap, err := m.Do(ctx, Request{ID: "req-1", Kind: "run", Client: "a",
		Run: func(ctx context.Context) (any, error) {
			return ctx.Value(ctxKey{}), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone || snap.Result != "caller" || snap.ID != "req-1" {
		t.Fatalf("Do = %+v, want done with the caller's context value under id req-1", snap)
	}
	if snap.StartedAt.IsZero() || snap.FinishedAt.IsZero() {
		t.Fatalf("Do snapshot lacks start/finish times: %+v", snap)
	}
	if _, err := m.Get("req-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Do: err %v, want ErrNotFound (Do jobs are not retained)", err)
	}
	s := m.Stats()
	if s.Retained != 0 || s.Completed != 1 || s.Queued != 1 {
		t.Fatalf("stats = %+v, want 0 retained, 1 queued, 1 completed", s)
	}
	if n := observed.Load(); n != 0 {
		t.Fatalf("observer saw %d notices of a Do job, want 0", n)
	}
}

// TestDoParentCancelRunning: cancelling the caller's context cancels the
// running body, and the job ends cancelled, not failed.
func TestDoParentCancelRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	type outcome struct {
		snap Snapshot
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		snap, err := m.Do(ctx, Request{Client: "a", Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}})
		done <- outcome{snap, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do did not return after its caller cancelled")
	}
	snap, err := got.snap, got.err
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled || snap.Error == "" {
		t.Fatalf("Do after parent cancel = %s (%q), want cancelled with an error", snap.State, snap.Error)
	}
	if s := m.Stats(); s.Cancelled != 1 || s.Failed != 0 || s.Running != 0 {
		t.Fatalf("stats = %+v, want 1 cancelled, 0 failed, 0 running", s)
	}
}

// TestDoParentCancelQueued: a Do job still waiting for a worker settles
// cancelled as soon as its caller gives up, and its body never runs.
func TestDoParentCancelQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 4})
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

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan Snapshot, 1)
	go func() {
		snap, err := m.Do(ctx, Request{Client: "a", Run: func(ctx context.Context) (any, error) {
			ran.Store(true)
			return nil, nil
		}})
		if err != nil {
			t.Error(err)
		}
		done <- snap
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Do job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case snap := <-done:
		if snap.State != StateCancelled {
			t.Fatalf("queued Do after cancel = %s, want cancelled", snap.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued Do did not settle after its caller cancelled")
	}
	if ran.Load() {
		t.Fatal("a cancelled queued job ran its body")
	}
	if s := m.Stats(); s.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after cancel, want 0", s.QueueDepth)
	}
}

// TestDoDuplicateID: an ID held by a live job, or by a retained finished
// one, is rejected; a Do job's ID is free again once it settles.
func TestDoDuplicateID(t *testing.T) {
	m := NewManager(Config{Workers: 2, MaxPerClient: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), Request{ID: "dup", Client: "a",
			Run: func(ctx context.Context) (any, error) {
				close(started)
				<-release
				return nil, nil
			}})
		first <- err
	}()
	<-started
	nop := func(ctx context.Context) (any, error) { return nil, nil }
	if _, err := m.Do(context.Background(), Request{ID: "dup", Client: "b", Run: nop}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("Do with a live duplicate id: err %v, want ErrDuplicate", err)
	}
	if _, err := m.Submit(Request{ID: "dup", Client: "b", Run: nop}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("Submit with a live duplicate id: err %v, want ErrDuplicate", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if snap, err := m.Do(context.Background(), Request{ID: "dup", Client: "a", Run: nop}); err != nil || snap.State != StateDone {
		t.Fatalf("Do reusing a settled id = %+v, %v; want done", snap, err)
	}

	async, err := m.Submit(Request{Client: "a", Run: nop})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, async.ID, StateDone)
	if _, err := m.Do(context.Background(), Request{ID: async.ID, Client: "a", Run: nop}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("Do naming a retained job: err %v, want ErrDuplicate", err)
	}
}

// TestDoAdmission: Do jobs count against the per-client limit like
// submitted ones, and the rejection is the same structured error.
func TestDoAdmission(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPerClient: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), Request{Client: "a", Run: func(ctx context.Context) (any, error) {
			close(started)
			<-block
			return nil, nil
		}})
		first <- err
	}()
	<-started
	_, err := m.Do(context.Background(), Request{Client: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "client_limit" || adm.RetryAfter <= 0 {
		t.Fatalf("second Do from one client: err %v, want AdmissionError client_limit with a Retry-After", err)
	}
	close(block)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestDoDeadlineExpires: a Do job's deadline expires it like a submitted
// job's.
func TestDoDeadlineExpires(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	snap, err := m.Do(context.Background(), Request{Client: "a", Deadline: 20 * time.Millisecond,
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateExpired {
		t.Fatalf("Do past its deadline = %s, want expired", snap.State)
	}
}

// TestDoLeavesRetainedResults: Do jobs never enter the retention window,
// so a burst of them cannot evict a finished job awaiting pickup.
func TestDoLeavesRetainedResults(t *testing.T) {
	m := NewManager(Config{Workers: 2, Retention: 2})
	async, err := m.Submit(Request{Client: "a", Run: func(ctx context.Context) (any, error) { return "kept", nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, async.ID, StateDone)
	for i := 0; i < 300; i++ {
		if _, err := m.Do(context.Background(), Request{Client: "a",
			Run: func(ctx context.Context) (any, error) { return i, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Get(async.ID)
	if err != nil || got.Result != "kept" {
		t.Fatalf("async job after 300 Do calls: %+v, %v; want its result retained", got, err)
	}
}

// TestDoQueueWaitSpan: the queue wait is a job_queue_wait span under the
// caller's trace, and the body's spans nest there too.
func TestDoQueueWaitSpan(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	ctx, root := obs.NewTrace(context.Background(), "request")
	if _, err := m.Do(ctx, Request{Client: "a", Run: func(ctx context.Context) (any, error) {
		_, sp := obs.StartSpan(ctx, "body")
		sp.End()
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	root.End()
	names := map[string]bool{}
	for _, c := range root.Tree().Children {
		names[c.Name] = true
	}
	if !names["job_queue_wait"] || !names["body"] {
		t.Fatalf("root children %v, want job_queue_wait and body", names)
	}
}

// TestDoConcurrent drives Do and Submit from many goroutines at once, some
// callers cancelling, for the race detector: every Do settles, nothing is
// left running or queued, and only the submitted jobs are retained.
func TestDoConcurrent(t *testing.T) {
	m := NewManager(Config{Workers: 3, MaxPerClient: 64, MaxQueue: 256, Retention: 512})
	m.SetObserver(func(s Snapshot) {
		if s.ID == "" {
			t.Error("observer got a snapshot without an id")
		}
	})
	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	var submitted atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := func(ctx context.Context) (any, error) {
					select {
					case <-ctx.Done():
						return nil, context.Cause(ctx)
					case <-time.After(time.Duration(i%3) * time.Millisecond):
						return i, nil
					}
				}
				if i%5 == 0 {
					if _, err := m.Submit(Request{Client: "c", Run: body}); err != nil {
						t.Error(err)
					}
					submitted.Add(1)
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				if i%4 == 0 {
					cancel()
				}
				snap, err := m.Do(ctx, Request{ID: fmt.Sprintf("g%d-%d", g, i), Client: "c", Run: body})
				cancel()
				if err != nil {
					t.Error(err)
					continue
				}
				if !snap.State.Terminal() {
					t.Errorf("Do returned non-terminal state %s", snap.State)
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := m.Stats()
		if s.Running == 0 && s.QueueDepth == 0 {
			if s.Retained != int(submitted.Load()) {
				t.Fatalf("retained %d jobs, want the %d submitted ones", s.Retained, submitted.Load())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("manager not quiescent: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}
