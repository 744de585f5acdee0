package browser

import (
	"bytes"
	"sync"
)

// bodyKey names one cached body: a document URL at one version.
type bodyKey struct {
	url     string
	version int64
}

// sharedBody is one held body and the number of agent cache entries that
// reference it.
type sharedBody struct {
	body []byte
	refs int
}

// bodyStore holds one copy of each cached body for every agent of an
// AgentHost. Hosted agents cache heavily overlapping documents, so without
// it the same 8 KiB body sits in memory once per holder. Each agent's
// logical cache is unchanged — its capacity accounting, eviction order and
// index deltas never look here — only the physical bytes are shared.
//
// Sharing is by value, never by key alone: a body is adopted only when its
// bytes equal the held copy, so one agent's bad body can never reach another
// agent's cache. Callers hold their agent's mu; the store's mutex is always
// taken second, never the reverse.
type bodyStore struct {
	mu    sync.Mutex
	m     map[bodyKey]sharedBody
	bytes int64
	refs  int64
}

// BodyStats summarizes a body store.
type BodyStats struct {
	Bodies int   // distinct (URL, version) bodies held
	Bytes  int64 // bytes of those bodies
	Refs   int64 // agent cache entries referencing them
}

func newBodyStore() *bodyStore {
	return &bodyStore{m: make(map[bodyKey]sharedBody)}
}

// acquire returns the slice an agent caches for (url, version) and whether
// the agent now holds a reference it must release. When no copy is held,
// body becomes the held copy; when the held copy is byte-identical, it is
// returned in body's place; when it differs, body stays the agent's own,
// outside the store.
func (s *bodyStore) acquire(url string, version int64, body []byte) (held []byte, shared bool) {
	k := bodyKey{url, version}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	switch {
	case !ok:
		e.body = body
		s.bytes += int64(len(body))
	case bytes.Equal(e.body, body):
	default:
		return body, false
	}
	e.refs++
	s.m[k] = e
	s.refs++
	return e.body, true
}

// lookup returns the held copy of (url, version), nil when there is none. The
// bytes are read-only; a caller that keeps them must still acquire.
func (s *bodyStore) lookup(url string, version int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[bodyKey{url, version}].body
}

// release drops one reference to (url, version), freeing the body with the
// last. Only an agent whose acquire reported shared may call it.
func (s *bodyStore) release(url string, version int64) {
	k := bodyKey{url, version}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[k]
	e.refs--
	s.refs--
	if e.refs > 0 {
		s.m[k] = e
		return
	}
	delete(s.m, k)
	s.bytes -= int64(len(e.body))
}

func (s *bodyStore) stats() BodyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return BodyStats{Bodies: len(s.m), Bytes: s.bytes, Refs: s.refs}
}

// keepLocked caches body under docURL, replacing any copy the agent held;
// the caller holds a.mu.
func (a *Agent) keepLocked(docURL string, body, mark []byte, version int64) {
	old, had := a.docs[docURL]
	held, shared := a.host.bodies.acquire(docURL, version, body)
	a.docs[docURL] = cachedDoc{body: held, watermark: mark, version: version, shared: shared}
	if had && old.shared {
		a.host.bodies.release(docURL, old.version)
	}
}

// dropLocked forgets docURL's cached body, releasing its store reference;
// the caller holds a.mu.
func (a *Agent) dropLocked(docURL string) {
	d, ok := a.docs[docURL]
	if !ok {
		return
	}
	delete(a.docs, docURL)
	if d.shared {
		a.host.bodies.release(docURL, d.version)
	}
}
