// Package workqueue is the proxy's background work plane: a bounded,
// prioritized, multi-worker job queue with per-kind rate limits, retry with
// exponential backoff, dead-letter accounting, and a graceful drain that
// loses no accepted job. The request path stays synchronous and fast; the
// queue absorbs everything that can happen later — origin revalidation,
// popularity-driven prefetch into browser caches, and cluster-wide
// invalidation fan-out (DESIGN.md §14).
//
// Design points, in the house idiom of the persist.go spill worker but
// generalized:
//
//   - Admission is bounded per priority level. Submit never blocks the
//     caller: a full level drops the job and counts it. Retries of already
//     accepted jobs bypass the bound — acceptance is a promise.
//   - Workers always run the highest-priority runnable job. A job whose
//     kind is over its rate limit is skipped in place (it does not block
//     lower-priority kinds), and a timer wakes a worker when the earliest
//     throttled kind has budget again.
//   - A failing job retries with doubling backoff + jitter up to
//     maxAttempts, then dead-letters: the queue counts it, remembers the
//     last few for inspection, and moves on. A sibling that was SIGKILLed
//     mid-fan-out therefore costs a bounded number of timed-out attempts,
//     never a wedged queue.
//   - Close drains: intake stops, pending retry timers collapse to
//     "now", rate limits stop applying, and Close returns only when every
//     accepted job has either completed or dead-lettered.
package workqueue

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"baps/internal/obs"
)

// Priority orders jobs: lower value runs first.
type Priority int

const (
	// High is for work a client is about to observe (invalidation purges).
	High Priority = iota
	// Normal is for consistency upkeep (revalidation, holder notifies).
	Normal
	// Low is for opportunistic placement (prefetch pushes).
	Low
	numPriorities
)

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Normal:
		return "normal"
	case Low:
		return "low"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Job is one unit of background work.
type Job struct {
	// Kind groups jobs for rate limiting and metrics ("revalidate",
	// "prefetch", "invalidate_peer", ...). Must be non-empty and match
	// the Prometheus label charset in practice.
	Kind string
	// Key, when non-empty, dedups: a job with the same (Kind, Key)
	// already queued (not yet started) is not enqueued again.
	Key string
	// Priority selects the admission lane. Out-of-range values clamp
	// to Low.
	Priority Priority
	// Run does the work. A nil error completes the job; a non-nil error
	// schedules a retry until maxAttempts, then dead-letters.
	Run func(ctx context.Context) error
}

// The queue's fixed parameters.
const (
	// workers is the number of concurrent job runners.
	workers = 4
	// capacity bounds each priority level's pending list.
	capacity = 1024
	// maxAttempts is the total number of tries per job including the
	// first.
	maxAttempts = 3
	// retryBackoff is the delay before the first retry; it doubles per
	// subsequent attempt with ±25% jitter, so the longest wait is
	// 2×retryBackoff.
	retryBackoff = 100 * time.Millisecond
)

// Config parameterizes a Queue. Zero values take the documented defaults.
type Config struct {
	// JobTimeout bounds each attempt's context (default 10s). This is
	// what keeps a dead sibling from wedging drain: the attempt times
	// out, fails, and eventually dead-letters.
	JobTimeout time.Duration
	// RateLimits maps job kind → jobs/second (token bucket with a one
	// second burst). Kinds absent from the map are unlimited. Limits
	// stop applying once Close begins draining.
	RateLimits map[string]float64
	// Metrics receives the queue's instrumentation; nil uses a private
	// registry.
	Metrics *obs.Registry

	// workers, when positive, replaces the workers constant: tests that
	// assert one worker's strict run order set it to 1.
	workers int
}

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("workqueue: closed")

// ErrFull is returned by Submit when the job's priority level is at
// capacity. The job was not accepted.
var ErrFull = errors.New("workqueue: queue full")

// ErrDuplicate is returned by Submit when an identical (Kind, Key) job is
// already pending. The earlier job stands.
var ErrDuplicate = errors.New("workqueue: duplicate job")

// job is the queued form of a Job. Dead-lettered jobs are retained whole —
// Run closure included — so the admin replay path can re-enqueue them with a
// fresh attempt budget; lastErr/deadAt record why and when they died.
type job struct {
	Job
	attempts int
	accepted time.Time
	lastErr  string
	deadAt   time.Time
}

// limiter is a per-kind token bucket: rate tokens/sec, burst = one second
// of rate (min 1).
type limiter struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// reserve takes a token if available, else reports how long until one
// accrues. Called with the queue lock held.
func (l *limiter) reserve(now time.Time) (ok bool, wait time.Duration) {
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	if l.tokens >= 1 {
		l.tokens--
		return true, 0
	}
	return false, time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
}

// DeadLetter records one retry-exhausted job.
type DeadLetter struct {
	Kind     string    `json:"kind"`
	Key      string    `json:"key,omitempty"`
	Attempts int       `json:"attempts"`
	Err      string    `json:"err"`
	At       time.Time `json:"at"`
}

// Stats is a point-in-time snapshot of queue accounting.
type Stats struct {
	Depth        int   `json:"depth"`         // queued, not yet running
	Running      int   `json:"running"`       // attempts in flight
	Waiting      int   `json:"waiting"`       // accepted, in retry backoff
	Submitted    int64 `json:"submitted"`     // accepted jobs
	Completed    int64 `json:"completed"`     // jobs that returned nil
	Dropped      int64 `json:"dropped"`       // rejected: level full
	Deduped      int64 `json:"deduped"`       // rejected: duplicate pending
	Retries      int64 `json:"retries"`       // failed attempts retried
	DeadLettered int64 `json:"dead_lettered"` // jobs that exhausted retries
}

// Queue is the background work plane. Create with New, feed with Submit,
// stop with Close.
type Queue struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [numPriorities][]*job
	pending  map[string]struct{} // (kind, key) dedup of queued jobs
	limiters map[string]*limiter
	timers   map[*time.Timer]*job // retry timers not yet fired
	closed   bool
	killed   bool // Kill: drop instead of retrying failed attempts
	running  int
	waiting  int // jobs parked in retry timers
	rng      *rand.Rand

	stats   Stats
	recent  []*job // ring of the last few dead letters (oldest first)
	wg      sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelFunc

	submitted    *obs.CounterVec
	completed    *obs.CounterVec
	dropped      *obs.CounterVec
	deduped      *obs.CounterVec
	retried      *obs.CounterVec
	deadLettered *obs.CounterVec
	runSeconds   *obs.Summary
	waitSeconds  *obs.Summary
}

const deadLetterRing = 32

// New starts a queue with cfg's workers running.
func New(cfg Config) *Queue {
	if cfg.workers <= 0 {
		cfg.workers = workers
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	q := &Queue{
		cfg:      cfg,
		pending:  make(map[string]struct{}),
		limiters: make(map[string]*limiter),
		timers:   make(map[*time.Timer]*job),
		rng:      rand.New(rand.NewPCG(0x9E3779B9, uint64(time.Now().UnixNano()))),
	}
	q.cond = sync.NewCond(&q.mu)
	q.baseCtx, q.cancel = context.WithCancel(context.Background())
	for kind, rate := range cfg.RateLimits {
		if rate > 0 {
			burst := rate
			if burst < 1 {
				burst = 1
			}
			q.limiters[kind] = &limiter{rate: rate, burst: burst, tokens: burst, last: time.Now()}
		}
	}

	reg := cfg.Metrics
	q.submitted = reg.CounterVec("baps_wq_submitted_total", "Jobs accepted into the work queue.", "kind")
	q.completed = reg.CounterVec("baps_wq_completed_total", "Jobs that finished successfully.", "kind")
	q.dropped = reg.CounterVec("baps_wq_dropped_total", "Jobs rejected because their priority level was full.", "kind")
	q.deduped = reg.CounterVec("baps_wq_deduped_total", "Jobs rejected because an identical job was pending.", "kind")
	q.retried = reg.CounterVec("baps_wq_retries_total", "Failed attempts scheduled for retry.", "kind")
	q.deadLettered = reg.CounterVec("baps_wq_dead_letters_total", "Jobs abandoned after exhausting retries.", "kind")
	q.runSeconds = reg.Summary("baps_wq_run_seconds", "Job attempt run latency.")
	q.waitSeconds = reg.Summary("baps_wq_wait_seconds", "Queue wait from acceptance to first run.")
	for p := High; p < numPriorities; p++ {
		pr := p
		reg.LabeledGaugeFunc("baps_wq_depth", "Jobs queued per priority level.", "priority", pr.String(), func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(len(q.queues[pr]))
		})
	}
	reg.GaugeFunc("baps_wq_running", "Job attempts currently executing.", func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return float64(q.running)
	})
	reg.GaugeFunc("baps_wq_waiting_retry", "Accepted jobs parked in retry backoff.", func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return float64(q.waiting)
	})

	q.wg.Add(cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		go q.worker()
	}
	return q
}

func dedupKey(kind, key string) string { return kind + "\x00" + key }

// Submit offers a job. It never blocks: the job is accepted (nil), or
// rejected with ErrClosed, ErrFull, or ErrDuplicate.
func (q *Queue) Submit(j Job) error {
	if j.Run == nil || j.Kind == "" {
		return errors.New("workqueue: job needs Kind and Run")
	}
	if j.Priority < High || j.Priority >= numPriorities {
		j.Priority = Low
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if j.Key != "" {
		if _, dup := q.pending[dedupKey(j.Kind, j.Key)]; dup {
			q.stats.Deduped++
			q.deduped.With(j.Kind).Inc()
			return ErrDuplicate
		}
	}
	if len(q.queues[j.Priority]) >= capacity {
		q.stats.Dropped++
		q.dropped.With(j.Kind).Inc()
		return ErrFull
	}
	jb := &job{Job: j, accepted: time.Now()}
	q.queues[j.Priority] = append(q.queues[j.Priority], jb)
	if j.Key != "" {
		q.pending[dedupKey(j.Kind, j.Key)] = struct{}{}
	}
	q.stats.Submitted++
	q.submitted.With(j.Kind).Inc()
	q.cond.Signal()
	return nil
}

// next pops the best runnable job, or reports the wait until a throttled
// kind has budget (-1 when nothing is queued). Called with q.mu held.
func (q *Queue) next(now time.Time) (*job, time.Duration) {
	soonest := time.Duration(-1)
	for p := High; p < numPriorities; p++ {
		lane := q.queues[p]
		for i, jb := range lane {
			if lim := q.limiters[jb.Kind]; lim != nil && !q.closed {
				ok, wait := lim.reserve(now)
				if !ok {
					if soonest < 0 || wait < soonest {
						soonest = wait
					}
					continue // skip in place; try other kinds/levels
				}
			}
			q.queues[p] = append(lane[:i:i], lane[i+1:]...)
			return jb, 0
		}
	}
	return nil, soonest
}

// worker runs jobs until the queue is closed and fully drained.
func (q *Queue) worker() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		jb, wait := q.next(time.Now())
		if jb == nil {
			if q.closed && q.depthLocked() == 0 && q.waiting == 0 && q.running == 0 {
				q.mu.Unlock()
				q.cond.Broadcast() // release siblings parked in Wait
				return
			}
			if wait >= 0 {
				// Everything queued is throttled: park until the
				// earliest bucket refills.
				t := time.AfterFunc(wait, q.cond.Broadcast)
				q.cond.Wait()
				t.Stop()
			} else {
				q.cond.Wait()
			}
			continue
		}
		if jb.Key != "" && jb.attempts == 0 {
			delete(q.pending, dedupKey(jb.Kind, jb.Key))
		}
		q.running++
		q.mu.Unlock()

		if jb.attempts == 0 {
			q.waitSeconds.Observe(time.Since(jb.accepted).Seconds())
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(q.baseCtx, q.cfg.JobTimeout)
		err := runAttempt(ctx, jb.Run)
		cancel()
		q.runSeconds.Observe(time.Since(start).Seconds())
		jb.attempts++

		q.mu.Lock()
		q.running--
		if err == nil {
			q.stats.Completed++
			q.completed.With(jb.Kind).Inc()
			continue
		}
		if jb.attempts >= maxAttempts {
			q.stats.DeadLettered++
			q.deadLettered.With(jb.Kind).Inc()
			jb.lastErr = err.Error()
			jb.deadAt = time.Now()
			q.recent = append(q.recent, jb)
			if len(q.recent) > deadLetterRing {
				q.recent = q.recent[len(q.recent)-deadLetterRing:]
			}
			continue
		}
		if q.killed {
			// Abrupt shutdown: the failed attempt is not retried.
			q.stats.Dropped++
			continue
		}
		q.stats.Retries++
		q.retried.With(jb.Kind).Inc()
		if q.closed {
			// Draining: skip the backoff, requeue immediately so
			// Close terminates as fast as the remaining attempts.
			q.requeueLocked(jb)
			continue
		}
		backoff := retryBackoff << (jb.attempts - 1)
		backoff += time.Duration((q.rng.Float64() - 0.5) * 0.5 * float64(backoff))
		q.waiting++
		var t *time.Timer
		t = time.AfterFunc(backoff, func() {
			q.mu.Lock()
			if _, live := q.timers[t]; live {
				delete(q.timers, t)
				q.waiting--
				q.requeueLocked(jb)
			}
			q.mu.Unlock()
		})
		q.timers[t] = jb
	}
}

// runAttempt isolates a job panic to the attempt: a panicking job fails
// (and may retry) instead of killing the worker.
func runAttempt(ctx context.Context, run func(context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workqueue: job panic: %v", r)
		}
	}()
	return run(ctx)
}

// requeueLocked puts an already-accepted job at the front of its lane,
// bypassing the admission bound. Called with q.mu held.
func (q *Queue) requeueLocked(jb *job) {
	q.queues[jb.Priority] = append([]*job{jb}, q.queues[jb.Priority]...)
	q.cond.Signal()
}

func (q *Queue) depthLocked() int {
	n := 0
	for p := High; p < numPriorities; p++ {
		n += len(q.queues[p])
	}
	return n
}

// Close stops intake and drains: every accepted job runs to completion or
// dead-letters (retry backoffs collapse to immediate, rate limits lift).
// It returns once the workers have exited.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	// Collapse pending retries to "now" so drain doesn't sit out backoff.
	for t, jb := range q.timers {
		t.Stop()
		delete(q.timers, t)
		q.waiting--
		q.requeueLocked(jb)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
	q.cancel()
}

// Kill stops the queue abruptly — the crash stand-in counterpart of Close:
// queued and backoff-parked jobs are discarded (counted as dropped), in-
// flight attempts have their contexts canceled and are not retried, and Kill
// returns once the workers exit.
func (q *Queue) Kill() {
	q.cancel() // fail in-flight attempts fast
	q.mu.Lock()
	q.closed = true
	q.killed = true
	for t := range q.timers {
		t.Stop()
		delete(q.timers, t)
		q.waiting--
		q.stats.Dropped++
	}
	for p := High; p < numPriorities; p++ {
		q.stats.Dropped += int64(len(q.queues[p]))
		q.queues[p] = nil
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// Stats snapshots the queue's accounting.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Depth = q.depthLocked()
	s.Running = q.running
	s.Waiting = q.waiting
	return s
}

// DeadLetters returns the most recent retry-exhausted jobs (newest last).
func (q *Queue) DeadLetters() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DeadLetter, 0, len(q.recent))
	for _, jb := range q.recent {
		out = append(out, DeadLetter{
			Kind: jb.Kind, Key: jb.Key, Attempts: jb.attempts,
			Err: jb.lastErr, At: jb.deadAt,
		})
	}
	return out
}

// Replay re-enqueues up to n retained dead letters, oldest first, each with
// a fresh attempt budget (the operator fixed whatever was failing; the jobs
// should run as if newly submitted). A dead letter whose (Kind, Key) is
// pending again is skipped AND dropped from the ring — the live job
// supersedes it; one whose lane is full is skipped but retained for a later
// replay. Returns how many were re-enqueued and how many skipped. A closed
// queue replays nothing.
func (q *Queue) Replay(n int) (replayed, skipped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || n <= 0 {
		return 0, 0
	}
	if n > len(q.recent) {
		n = len(q.recent)
	}
	keep := q.recent[n:]
	remainder := make([]*job, 0, n)
	for _, jb := range q.recent[:n] {
		if jb.Key != "" {
			if _, dup := q.pending[dedupKey(jb.Kind, jb.Key)]; dup {
				skipped++
				q.stats.Deduped++
				q.deduped.With(jb.Kind).Inc()
				continue
			}
		}
		if len(q.queues[jb.Priority]) >= capacity {
			skipped++
			remainder = append(remainder, jb)
			continue
		}
		jb.attempts = 0
		jb.lastErr = ""
		jb.deadAt = time.Time{}
		jb.accepted = time.Now()
		q.queues[jb.Priority] = append(q.queues[jb.Priority], jb)
		if jb.Key != "" {
			q.pending[dedupKey(jb.Kind, jb.Key)] = struct{}{}
		}
		q.stats.Submitted++
		q.submitted.With(jb.Kind).Inc()
		replayed++
	}
	q.recent = append(remainder, keep...)
	if replayed > 0 {
		q.cond.Broadcast()
	}
	return replayed, skipped
}
