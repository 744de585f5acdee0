package proxy

import (
	"context"
	"crypto/md5"
	"encoding/base64"
	"fmt"
	"sync"

	"baps/internal/flight"
)

// watermarkMemoCap bounds the watermark memo. An entry is a 16-byte digest
// and the 344-byte base64 form of a 2048-bit signature, so the full memo is
// under 8 MiB; it covers every distinct body the proxy handed a client over
// a window far longer than a document stays in any cache tier.
const watermarkMemoCap = 16384

// watermarkMemo remembers the watermarks this proxy has derived, keyed by
// document digest and stored in X-BAPS-Watermark header form. PKCS#1 v1.5
// signing is a deterministic function of (key, digest), so an entry never
// goes stale and a dropped one is re-derived byte-identically; eviction is
// first-in first-out over a fixed ring.
type watermarkMemo struct {
	mu     sync.Mutex
	marks  map[[md5.Size]byte]string
	ring   [][md5.Size]byte // insertion order; ring[next] is the oldest once full
	next   int
	flight flight.Group[string]
}

func (m *watermarkMemo) get(key [md5.Size]byte) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mark, ok := m.marks[key]
	return mark, ok
}

func (m *watermarkMemo) put(key [md5.Size]byte, mark string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.marks == nil {
		m.marks = make(map[[md5.Size]byte]string)
	}
	if len(m.ring) < watermarkMemoCap {
		m.ring = append(m.ring, key)
	} else {
		delete(m.marks, m.ring[m.next])
		m.ring[m.next] = key
		m.next = (m.next + 1) % watermarkMemoCap
	}
	m.marks[key] = mark
}

func (m *watermarkMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.marks)
}

// watermarkFor returns the §6.1 watermark {MD5(D)}K⁻¹proxy for digest, in
// header form. It is the only place the proxy signs: the watermark is a
// value derived on demand for a client that can verify and re-serve the
// document, not state produced at acquisition. Concurrent first demands
// for one digest sign once; the wait is bounded by a single private-key
// operation, so it is not tied to any one request's context.
func (s *Server) watermarkFor(digest []byte) (string, error) {
	if len(digest) != md5.Size {
		return "", fmt.Errorf("proxy: watermark: %d-byte digest", len(digest))
	}
	key := [md5.Size]byte(digest)
	if mark, ok := s.marks.get(key); ok {
		s.m.watermarkMemoHits.Inc()
		return mark, nil
	}
	signed := false
	mark, _, err := s.marks.flight.Do(context.Background(), string(digest), func() (string, error) {
		// A round that completed between the lookup above and this one
		// already filled the memo.
		if mark, ok := s.marks.get(key); ok {
			return mark, nil
		}
		sig, err := s.signer.WatermarkDigest(digest)
		if err != nil {
			return "", err
		}
		signed = true
		mark := base64.StdEncoding.EncodeToString(sig)
		s.marks.put(key, mark)
		return mark, nil
	})
	switch {
	case err != nil:
		if s.logger != nil {
			s.logger.Warn("watermark signing failed", "err", err)
		}
	case signed:
		s.m.watermarkSigned.Inc()
	default:
		s.m.watermarkMemoHits.Inc()
	}
	return mark, err
}
