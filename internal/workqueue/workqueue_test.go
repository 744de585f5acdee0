package workqueue

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/obs"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestSubmitRunsJobs(t *testing.T) {
	q := New(Config{})
	defer q.Close()
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		if err := q.Submit(Job{Kind: "noop", Run: func(context.Context) error {
			ran.Add(1)
			return nil
		}}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return ran.Load() == 20 }, "jobs to run")
	st := q.Stats()
	if st.Submitted != 20 || st.Completed != 20 {
		t.Fatalf("stats = %+v, want 20 submitted/completed", st)
	}
}

// TestPriorityUnderFullQueue is the priority-inversion edge case: with the
// normal lane at capacity and blocking the single worker, high-priority jobs
// must still be admitted (each lane has its own bound) and must run before
// the queued normal-priority backlog.
func TestPriorityUnderFullQueue(t *testing.T) {
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	record := func(tag string) func(context.Context) error {
		return func(context.Context) error {
			<-gate
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return nil
		}
	}

	q := New(Config{workers: 1}) // one worker: the run order is the dispatch order
	defer q.Close()

	// One job occupies the worker; fill the normal lane behind it.
	if err := q.Submit(Job{Kind: "plug", Priority: Normal, Run: record("plug")}); err != nil {
		t.Fatalf("plug: %v", err)
	}
	waitFor(t, time.Second, func() bool { return q.Stats().Running == 1 }, "worker busy")
	for i := 0; i < capacity; i++ {
		if err := q.Submit(Job{Kind: "normal", Priority: Normal, Run: record("normal")}); err != nil {
			t.Fatalf("normal %d: %v", i, err)
		}
	}
	// The normal lane is now full: further normal jobs drop...
	if err := q.Submit(Job{Kind: "normal", Priority: Normal, Run: record("normal")}); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow normal submit = %v, want ErrFull", err)
	}
	// ...but high-priority work is still admitted.
	for i := 0; i < 3; i++ {
		if err := q.Submit(Job{Kind: "high", Priority: High, Run: record("high")}); err != nil {
			t.Fatalf("high admission under full normal lane: %v", err)
		}
	}
	st := q.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}

	close(gate)
	waitFor(t, 2*time.Second, func() bool { return q.Stats().Completed == 1+capacity+3 }, "drain")
	mu.Lock()
	defer mu.Unlock()
	// order[0] is the plug; the three high jobs must precede every normal job.
	for i, tag := range order[1:4] {
		if tag != "high" {
			t.Fatalf("order[%d] = %q, want high (full order %v)", i+1, tag, order)
		}
	}
}

// TestRetryExhaustionDeadLetters verifies a persistently failing job is
// retried maxAttempts-1 times and then dead-lettered with its last error.
func TestRetryExhaustionDeadLetters(t *testing.T) {
	reg := obs.NewRegistry()
	q := New(Config{Metrics: reg})
	defer q.Close()
	var attempts atomic.Int64
	err := q.Submit(Job{Kind: "doomed", Key: "k", Run: func(context.Context) error {
		attempts.Add(1)
		return errors.New("sibling unreachable")
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return q.Stats().DeadLettered == 1 }, "dead letter")
	if got := attempts.Load(); got != maxAttempts {
		t.Fatalf("attempts = %d, want %d", got, maxAttempts)
	}
	st := q.Stats()
	if st.Retries != maxAttempts-1 || st.Completed != 0 {
		t.Fatalf("stats = %+v, want %d retries 0 completed", st, maxAttempts-1)
	}
	dl := q.DeadLetters()
	if len(dl) != 1 || dl[0].Kind != "doomed" || dl[0].Attempts != maxAttempts || dl[0].Err != "sibling unreachable" {
		t.Fatalf("dead letters = %+v", dl)
	}
	if v := reg.VecValue("baps_wq_dead_letters_total", "doomed"); v != 1 {
		t.Fatalf("dead letter metric = %d, want 1", v)
	}
}

// TestDrainLosesNothing is the zero-loss drain edge case: every accepted
// job must be accounted for (completed or dead-lettered) by the time Close
// returns, including jobs that fail once and are sitting in retry backoff
// when Close fires.
func TestDrainLosesNothing(t *testing.T) {
	q := New(Config{})
	var ran sync.Map
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("%d-%d", g, i)
				flaky := i%5 == 0
				first := new(atomic.Bool)
				err := q.Submit(Job{Kind: "work", Priority: Priority(i % 3), Run: func(context.Context) error {
					if flaky && first.CompareAndSwap(false, true) {
						return errors.New("transient")
					}
					ran.Store(id, true)
					return nil
				}})
				if err == nil {
					accepted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	// Close while retries are pending: backoff is 100ms, so flaky jobs'
	// second attempts are almost certainly still parked.
	q.Close()
	st := q.Stats()
	if st.Submitted != accepted.Load() {
		t.Fatalf("submitted = %d, accepted = %d", st.Submitted, accepted.Load())
	}
	if st.Completed+st.DeadLettered != st.Submitted {
		t.Fatalf("drain lost jobs: completed %d + deadlettered %d != submitted %d",
			st.Completed, st.DeadLettered, st.Submitted)
	}
	if st.DeadLettered != 0 {
		t.Fatalf("dead lettered = %d, want 0 (jobs fail only once)", st.DeadLettered)
	}
	var n int64
	ran.Range(func(any, any) bool { n++; return true })
	if n != st.Submitted {
		t.Fatalf("ran %d distinct jobs, want %d", n, st.Submitted)
	}
	if err := q.Submit(Job{Kind: "late", Run: func(context.Context) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit = %v, want ErrClosed", err)
	}
}

func TestPerKindRateLimit(t *testing.T) {
	// "slow" gets 50/s with a 50-token burst: 60 jobs need ~200ms of
	// accrual beyond the burst. "fast" is unlimited and must not be
	// held up behind the throttled kind.
	q := New(Config{RateLimits: map[string]float64{"slow": 50}})
	defer q.Close()
	var slow, fast atomic.Int64
	start := time.Now()
	for i := 0; i < 60; i++ {
		if err := q.Submit(Job{Kind: "slow", Priority: High, Run: func(context.Context) error {
			slow.Add(1)
			return nil
		}}); err != nil {
			t.Fatalf("slow %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := q.Submit(Job{Kind: "fast", Priority: Normal, Run: func(context.Context) error {
			fast.Add(1)
			return nil
		}}); err != nil {
			t.Fatalf("fast %d: %v", i, err)
		}
	}
	waitFor(t, time.Second, func() bool { return fast.Load() == 20 }, "unlimited kind to finish")
	if got := slow.Load(); got >= 60 {
		t.Fatalf("slow kind finished (%d) before its bucket could have refilled", got)
	}
	waitFor(t, 3*time.Second, func() bool { return slow.Load() == 60 }, "throttled kind to finish")
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("throttled kind finished in %v, want >= 150ms", el)
	}
}

func TestDedupPendingJobs(t *testing.T) {
	gate := make(chan struct{})
	q := New(Config{workers: 1}) // one busy worker leaves the next job pending
	defer q.Close()
	var ran atomic.Int64
	job := func() Job {
		return Job{Kind: "reval", Key: "http://o/doc", Run: func(context.Context) error {
			<-gate
			ran.Add(1)
			return nil
		}}
	}
	if err := q.Submit(job()); err != nil {
		t.Fatalf("first: %v", err)
	}
	waitFor(t, time.Second, func() bool { return q.Stats().Running == 1 }, "worker busy")
	// Queued (not yet started) duplicate is rejected.
	if err := q.Submit(job()); err != nil {
		t.Fatalf("second (first is running, not pending): %v", err)
	}
	if err := q.Submit(job()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("third = %v, want ErrDuplicate", err)
	}
	if st := q.Stats(); st.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", st.Deduped)
	}
	close(gate)
	waitFor(t, time.Second, func() bool { return ran.Load() == 2 }, "both distinct jobs")
}

func TestJobPanicIsRetriedNotFatal(t *testing.T) {
	q := New(Config{})
	defer q.Close()
	var calls atomic.Int64
	q.Submit(Job{Kind: "panicky", Run: func(context.Context) error {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return nil
	}})
	waitFor(t, 2*time.Second, func() bool { return q.Stats().Completed == 1 }, "panic retried then completed")
}

func TestJobTimeoutFailsAttempt(t *testing.T) {
	q := New(Config{JobTimeout: 20 * time.Millisecond})
	defer q.Close()
	q.Submit(Job{Kind: "hung", Run: func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	waitFor(t, 2*time.Second, func() bool { return q.Stats().DeadLettered == 1 }, "hung job to dead-letter")
}

// submitBlocking submits j, yielding to the workers while its priority
// level is at capacity.
func submitBlocking(q *Queue, j Job) {
	for errors.Is(q.Submit(j), ErrFull) {
		runtime.Gosched()
	}
}

// BenchmarkWorkqueueSubmit times Submit alone: after every capacity
// submits the timer stops while the workers drain the lane, so no timed
// Submit meets a full lane.
func BenchmarkWorkqueueSubmit(b *testing.B) {
	q := New(Config{})
	defer q.Close()
	noop := func(context.Context) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%capacity == 0 {
			b.StopTimer()
			for q.Stats().Depth > 0 {
				runtime.Gosched()
			}
			b.StartTimer()
		}
		if err := q.Submit(Job{Kind: "bench", Run: noop}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkqueueThroughput(b *testing.B) {
	q := New(Config{})
	noop := func(context.Context) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitBlocking(q, Job{Kind: "bench", Run: noop})
	}
	q.Close()
	if st := q.Stats(); st.Completed != st.Submitted {
		b.Fatalf("lost jobs: %+v", st)
	}
}
