package proxy

import (
	"net/http"
	"strconv"
)

// Dead-letter admin plane (DESIGN.md §14 follow-on): the background queue
// retains its last few retry-exhausted jobs, and these endpoints let an
// operator inspect them and push them back through the queue after fixing
// whatever was failing — without restarting the proxy.

// handleQueueDeadLetter serves GET /queue/deadletter?n=K: the most recent K
// dead-lettered background jobs (newest last; all retained entries when n is
// absent or out of range).
func (s *Server) handleQueueDeadLetter(w http.ResponseWriter, r *http.Request) {
	dl := s.wq.DeadLetters()
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(dl) {
		dl = dl[len(dl)-n:]
	}
	writeJSON(w, DeadLetterResponse{DeadLetters: dl})
}

// handleQueueReplay serves POST /queue/replay?n=K: re-enqueues up to K
// retained dead letters (oldest first, fresh attempt budget; all of them
// when n is absent).
func (s *Server) handleQueueReplay(w http.ResponseWriter, r *http.Request) {
	n := deadLetterRingMax
	if k, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && k >= 0 {
		n = k
	}
	replayed, skipped := s.wq.Replay(n)
	writeJSON(w, ReplayResponse{Replayed: replayed, Skipped: skipped})
}

// deadLetterRingMax is "replay everything" — comfortably above the queue's
// retention ring.
const deadLetterRingMax = 1 << 20
