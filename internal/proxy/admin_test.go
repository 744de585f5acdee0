package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/workqueue"
)

// TestQueueAdminEndpoints drives the dead-letter admin plane end to end:
// a retry-exhausted background job shows up on GET /queue/deadletter, POST
// /queue/replay pushes it back through the queue, and once it completes the
// ring is empty again.
func TestQueueAdminEndpoints(t *testing.T) {
	s := testServer(t, nil)

	var calls atomic.Int64
	if err := s.wq.Submit(workqueue.Job{Kind: "admin_test", Key: "k", Run: func(context.Context) error {
		if calls.Add(1) <= 3 { // three attempts, then dead-letters once
			return errors.New("induced")
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "job to dead-letter", func() bool {
		return s.wq.Stats().DeadLettered == 1
	})

	resp, err := http.Get(s.BaseURL() + "/queue/deadletter?n=8")
	if err != nil {
		t.Fatal(err)
	}
	var dl DeadLetterResponse
	if err := json.NewDecoder(resp.Body).Decode(&dl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dl.DeadLetters) != 1 || dl.DeadLetters[0].Kind != "admin_test" || dl.DeadLetters[0].Err != "induced" {
		t.Fatalf("deadletter response = %+v", dl)
	}

	resp, err = http.Post(s.BaseURL()+"/queue/replay", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReplayResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.Replayed != 1 || rr.Skipped != 0 {
		t.Fatalf("replay response = %+v, want 1 replayed", rr)
	}
	pollUntil(t, 5*time.Second, "replayed job to complete", func() bool {
		return s.wq.Stats().Completed >= 1
	})
	if got := len(s.wq.DeadLetters()); got != 0 {
		t.Fatalf("ring still holds %d after successful replay", got)
	}
}
