package workqueue

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// failNTimes returns a Run that fails its first n attempts, then succeeds,
// counting total invocations.
func failNTimes(n int, calls *atomic.Int64) func(context.Context) error {
	var failed atomic.Int64
	return func(context.Context) error {
		calls.Add(1)
		if failed.Add(1) <= int64(n) {
			return errors.New("induced failure")
		}
		return nil
	}
}

// TestDeadLetterSnapshot: the ring retains the last deadLetterRing entries
// in order (oldest first), each carrying kind/key/attempts/error, and the
// snapshot is stable against further queue activity.
func TestDeadLetterSnapshot(t *testing.T) {
	q := New(Config{})
	defer q.Close()
	const n = deadLetterRing + 5
	for i := 0; i < n; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := q.Submit(Job{Kind: "doomed", Key: key, Run: func(context.Context) error {
			return errors.New("always fails")
		}}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return q.Stats().DeadLettered == n }, "jobs to dead-letter")

	dl := q.DeadLetters()
	if len(dl) != deadLetterRing {
		t.Fatalf("ring holds %d, want %d", len(dl), deadLetterRing)
	}
	for _, d := range dl {
		if d.Kind != "doomed" || d.Attempts != maxAttempts || d.Err != "always fails" || d.At.IsZero() {
			t.Fatalf("bad dead letter record: %+v", d)
		}
	}

	// The snapshot is a copy: mutating queue state afterwards must not
	// reach into it.
	before := dl[0]
	q.Replay(1)
	if dl[0] != before {
		t.Fatal("DeadLetters snapshot aliased queue state")
	}
}

// TestReplayRerunsDeadLetters: a replayed job runs again with a fresh
// attempt budget and can complete; it leaves the ring.
func TestReplayRerunsDeadLetters(t *testing.T) {
	q := New(Config{})
	defer q.Close()
	var calls atomic.Int64
	// Fails every attempt (dead-letters), succeeds on the replayed run.
	if err := q.Submit(Job{Kind: "fixable", Key: "k", Run: failNTimes(maxAttempts, &calls)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return q.Stats().DeadLettered == 1 }, "job to dead-letter")

	replayed, skipped := q.Replay(10)
	if replayed != 1 || skipped != 0 {
		t.Fatalf("Replay = (%d, %d), want (1, 0)", replayed, skipped)
	}
	waitFor(t, 5*time.Second, func() bool { return q.Stats().Completed == 1 }, "replayed job to complete")
	if calls.Load() != maxAttempts+1 {
		t.Fatalf("job ran %d times, want %d (%d failures + 1 replayed success)", calls.Load(), maxAttempts+1, maxAttempts)
	}
	if len(q.DeadLetters()) != 0 {
		t.Fatal("replayed job still in the dead-letter ring")
	}
}

// TestReplayDedupAgainstPending: a dead letter whose (Kind, Key) is pending
// again is skipped — the live job supersedes it — and dropped from the ring
// so it cannot shadow future replays.
func TestReplayDedupAgainstPending(t *testing.T) {
	q := New(Config{workers: 1}) // one worker: a blocked worker keeps submitted jobs pending
	defer q.Close()

	// Block the only worker so submitted jobs stay pending.
	gate := make(chan struct{})
	if err := q.Submit(Job{Kind: "blocker", Run: func(ctx context.Context) error {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return q.Stats().Running == 1 }, "blocker to start")

	// Dead-letter a (kind, key) job: let it run by opening the gate after
	// queueing it alone.
	if err := q.Submit(Job{Kind: "dup", Key: "k1", Run: func(context.Context) error {
		return errors.New("always fails")
	}}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitFor(t, 5*time.Second, func() bool { return q.Stats().DeadLettered == 1 }, "dup job to dead-letter")

	// Wedge the worker again, then submit a LIVE job with the same identity.
	gate2 := make(chan struct{})
	defer close(gate2)
	if err := q.Submit(Job{Kind: "blocker", Run: func(ctx context.Context) error {
		select {
		case <-gate2:
		case <-ctx.Done():
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return q.Stats().Running == 1 }, "second blocker to start")
	if err := q.Submit(Job{Kind: "dup", Key: "k1", Run: func(context.Context) error { return nil }}); err != nil {
		t.Fatal(err)
	}

	replayed, skipped := q.Replay(10)
	if replayed != 0 || skipped != 1 {
		t.Fatalf("Replay = (%d, %d), want (0, 1): pending job must supersede", replayed, skipped)
	}
	if len(q.DeadLetters()) != 0 {
		t.Fatal("superseded dead letter should leave the ring")
	}
}

// TestReplayOnClosedQueue: a draining queue replays nothing.
func TestReplayOnClosedQueue(t *testing.T) {
	q := New(Config{})
	if err := q.Submit(Job{Kind: "doomed", Run: func(context.Context) error {
		return errors.New("fails")
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return q.Stats().DeadLettered == 1 }, "job to dead-letter")
	q.Close()
	if replayed, skipped := q.Replay(10); replayed != 0 || skipped != 0 {
		t.Fatalf("Replay on closed queue = (%d, %d), want (0, 0)", replayed, skipped)
	}
}
