package proxy

// Peer health tracking and the per-peer circuit breaker.
//
// The paper's §2 model has browsers dynamically joining and leaving; the
// original live implementation treated every indexed peer as healthy until a
// fetch against it failed, then pruned a single index entry per failure — a
// dead holder with many cached documents cost one PeerTimeout per document.
// The tracker below keeps one health record per registered peer, fed by
// every fetch and relay outcome and by the browser heartbeat
// (POST /heartbeat), and runs a three-state circuit breaker:
//
//	closed    → normal operation; consecutive transport failures count up.
//	open      → the peer tripped (threshold consecutive failures, a
//	            reported delivery, or a heartbeat silence sweep); all its
//	            index entries are quarantined at once and holder selection
//	            skips it.
//	half-open → after the cooldown one probe request is let through; a
//	            success closes the breaker and re-admits every entry at
//	            once, a failure re-opens it.
//
// The breaker is the quarantine: a holder is quarantined exactly while its
// breaker is not closed, and nothing else records it. The browser index
// keeps only who holds what; holder selection lists a document's holders
// from it and orders the quarantined ones last (liveFirst), so a trip or a
// re-admission is one state change here and no index write.
//
// Stale-entry responses (a live peer that already evicted the document) do
// not count against the breaker — only transport-level failures and
// integrity violations do.
//
// The state machine itself lives in internal/breaker (shared with the
// sibling-proxy quarantine in internal/federation); this file keeps the
// per-peer bookkeeping around it.

import (
	"sync"
	"time"

	"baps/internal/breaker"
	"baps/internal/index"
)

// peerHealth is the mutable health record of one registered peer.
type peerHealth struct {
	br          breaker.Breaker
	lastSeen    time.Time // registration, heartbeat, or successful serve
	ewmaLatency time.Duration
	successes   int64
	failures    int64
	heartbeats  int64
}

// healthTracker owns all peer health records. Safe for concurrent use.
type healthTracker struct {
	mu        sync.Mutex
	peers     map[int]*peerHealth
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // open → half-open delay
	now       func() time.Time
}

// ewmaAlpha weights the newest latency sample in the moving average.
const ewmaAlpha = 0.2

func newHealthTracker(threshold int, cooldown time.Duration) *healthTracker {
	return &healthTracker{
		peers:     make(map[int]*peerHealth),
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
	}
}

// disabled is the one rule for BreakerThreshold <= 0: no path moves a
// peer's breaker out of closed, so nothing admits, trips or quarantines by
// it. Failure needs no check here — breaker.Failure trips nothing at a
// threshold of 0 or less.
func (h *healthTracker) disabled() bool { return h.threshold <= 0 }

// Track starts (or resets) a peer's record at registration time.
func (h *healthTracker) Track(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peers[id] = &peerHealth{lastSeen: h.now()}
}

// Forget drops a peer's record (unregistration or departure).
func (h *healthTracker) Forget(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.peers, id)
}

// Beat records a heartbeat, reporting whether the peer is tracked.
func (h *healthTracker) Beat(id int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	if !ok {
		return false
	}
	p.lastSeen = h.now()
	p.heartbeats++
	return true
}

// Allow reports whether a request may be sent to the peer. With the breaker
// open it returns false until the cooldown elapses, then transitions to
// half-open and admits exactly one probe (a stuck probe is replaced after
// another cooldown).
func (h *healthTracker) Allow(id int) bool {
	if h.disabled() {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	if !ok {
		return true // untracked peers (e.g. pre-breaker entries) pass through
	}
	return p.br.Allow(h.now(), h.threshold, h.cooldown)
}

// Success records a served request with its latency. readmitted is true when
// this success closed a non-closed breaker, re-admitting every index entry
// of the peer.
func (h *healthTracker) Success(id int, latency time.Duration) (readmitted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	if !ok {
		return false
	}
	p.successes++
	p.lastSeen = h.now()
	if p.ewmaLatency == 0 {
		p.ewmaLatency = latency
	} else {
		p.ewmaLatency = time.Duration((1-ewmaAlpha)*float64(p.ewmaLatency) + ewmaAlpha*float64(latency))
	}
	return p.br.Success()
}

// Touch refreshes a peer's last-seen time without affecting the breaker —
// used for stale-entry responses, where the peer answered (it is alive) but
// could not serve the document.
func (h *healthTracker) Touch(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[id]; ok {
		p.lastSeen = h.now()
	}
}

// Failure records a transport failure or integrity violation. tripped is
// true when this failure opened a previously closed breaker, quarantining
// every index entry of the peer.
func (h *healthTracker) Failure(id int) (tripped bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	if !ok {
		return false
	}
	p.failures++
	return p.br.Failure(h.now(), h.threshold)
}

// SweepSilent trips the breaker of every closed-state peer not seen for
// longer than maxAge (missed heartbeats), returning the tripped ids. With
// the breaker disabled it trips nothing.
func (h *healthTracker) SweepSilent(maxAge time.Duration) []int {
	if h.disabled() {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	var tripped []int
	for id, p := range h.peers {
		if p.br.State() == breaker.Closed && now.Sub(p.lastSeen) > maxAge {
			p.br.Trip(now)
			tripped = append(tripped, id)
		}
	}
	return tripped
}

// quarantined reports whether id's breaker is open or half-open. An
// untracked peer is never quarantined. The caller holds h.mu.
func (h *healthTracker) quarantined(id int) bool {
	p, ok := h.peers[id]
	return ok && p.br.State() != breaker.Closed
}

// liveFirst reorders holders stably, in place: holders outside quarantine
// first, the quarantined ones (half-open probe candidates) after them, each
// group in the order given.
func (h *healthTracker) liveFirst(holders []index.Entry) []index.Entry {
	if len(holders) < 2 {
		return holders // one holder is in order whatever its state
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	live := 0
	for i, e := range holders {
		if !h.quarantined(e.Client) {
			copy(holders[live+1:i+1], holders[live:i])
			holders[live] = e
			live++
		}
	}
	return holders
}

// anyLive reports whether some holder is outside quarantine.
func (h *healthTracker) anyLive(holders []index.Entry) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range holders {
		if !h.quarantined(e.Client) {
			return true
		}
	}
	return false
}

// quarantinedPeers lists the tracked peers whose breaker is not closed.
func (h *healthTracker) quarantinedPeers() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var ids []int
	for id := range h.peers {
		if h.quarantined(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Counts reports how many tracked peers sit in each breaker state.
func (h *healthTracker) Counts() (closed, open, halfOpen int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.peers {
		switch p.br.State() {
		case breaker.Open:
			open++
		case breaker.HalfOpen:
			halfOpen++
		default:
			closed++
		}
	}
	return
}

// PeerHealthStat is the per-peer health record exposed in /stats.
type PeerHealthStat struct {
	Client         int     `json:"client"`
	Breaker        string  `json:"breaker"`
	ConsecFails    int     `json:"consecutive_failures"`
	Successes      int64   `json:"successes"`
	Failures       int64   `json:"failures"`
	Heartbeats     int64   `json:"heartbeats"`
	EWMALatencyMs  float64 `json:"ewma_latency_ms"`
	LastSeenAgeSec float64 `json:"last_seen_age_sec"`
}

// Snapshot returns per-peer health stats, ordered by client id.
func (h *healthTracker) Snapshot() []PeerHealthStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	out := make([]PeerHealthStat, 0, len(h.peers))
	for id, p := range h.peers {
		out = append(out, PeerHealthStat{
			Client:         id,
			Breaker:        p.br.State().String(),
			ConsecFails:    p.br.ConsecFails(),
			Successes:      p.successes,
			Failures:       p.failures,
			Heartbeats:     p.heartbeats,
			EWMALatencyMs:  float64(p.ewmaLatency) / float64(time.Millisecond),
			LastSeenAgeSec: now.Sub(p.lastSeen).Seconds(),
		})
	}
	sortPeerStats(out)
	return out
}

func sortPeerStats(s []PeerHealthStat) {
	// Insertion sort: peer counts are small and this avoids an import.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Client < s[j-1].Client; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
