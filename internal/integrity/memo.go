package integrity

import (
	"crypto/md5"
	"crypto/rsa"
	"sync"
	"sync/atomic"
)

// MemoCap bounds a Memo. An entry is a 16-byte digest and a watermark of at
// most 344 bytes (the base64 header form of a 2048-bit signature; the raw
// form is 256), so a full memo is under 8 MiB. It covers every distinct body
// a proxy or an agent host handles over a window far longer than a document
// stays in any cache tier.
const MemoCap = 16384

// Memo is a bounded, digest-keyed map of watermarks, safe for concurrent use;
// the zero value is empty and ready. Eviction is first-in first-out over a
// fixed ring. Put is idempotent: re-putting a present digest overwrites its
// value in place and takes no second ring slot, so callers whose concurrent
// first lookups both miss may both put.
type Memo struct {
	mu    sync.Mutex
	limit int // capacity; 0 means MemoCap (tests shrink it to force eviction)
	vals  map[[md5.Size]byte]string
	ring  [][md5.Size]byte // insertion order; ring[next] is the oldest once full
	next  int
}

// Get returns the watermark memoised for digest.
func (m *Memo) Get(digest [md5.Size]byte) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mark, ok := m.vals[digest]
	return mark, ok
}

// Put memoises mark for digest, evicting the oldest entry when full.
func (m *Memo) Put(digest [md5.Size]byte, mark string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[digest]; ok {
		m.vals[digest] = mark
		return
	}
	if m.vals == nil {
		m.vals = make(map[[md5.Size]byte]string)
	}
	limit := m.limit
	if limit == 0 {
		limit = MemoCap
	}
	if len(m.ring) < limit {
		m.ring = append(m.ring, digest)
	} else {
		delete(m.vals, m.ring[m.next])
		m.ring[m.next] = digest
		m.next = (m.next + 1) % limit
	}
	m.vals[digest] = mark
}

// Len reports the number of memoised watermarks.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vals)
}

// Verifier checks watermarks under one proxy public key and remembers the
// (digest, watermark) pairs that passed a full RSA verification under it. A
// later delivery is accepted without an RSA operation only when the MD5 of
// the bytes received maps to a memoised pair AND its watermark is
// byte-identical to the memoised one; anything else — a new digest,
// different watermark bytes — takes the full check, and only successes are
// remembered. The outcome of every call is therefore exactly that of the
// package-level Verify; only the number of RSA operations differs. A memo
// is never consulted under another key: a caller whose proxy changed key
// builds a new Verifier. Safe for concurrent use.
type Verifier struct {
	pub    *rsa.PublicKey
	memo   Memo
	rsaOps atomic.Int64 // full verifications run (tests audit the memo with it)
}

// NewVerifier returns a verifier for watermarks made with pub's private key.
func NewVerifier(pub *rsa.PublicKey) *Verifier {
	return &Verifier{pub: pub}
}

// Verify checks doc against watermark like the package-level Verify.
// memoHit reports that the pair had already verified under this key, so no
// RSA operation ran.
func (v *Verifier) Verify(doc, watermark []byte) (memoHit bool, err error) {
	digest := md5.Sum(doc)
	if mark, ok := v.memo.Get(digest); ok && mark == string(watermark) {
		return true, nil
	}
	return false, v.verifyFull(digest, watermark)
}

// verifyFull runs the RSA check and memoises a success. It is kept out of
// Verify so that only a miss moves the digest to the heap.
func (v *Verifier) verifyFull(digest [md5.Size]byte, watermark []byte) error {
	v.rsaOps.Add(1)
	if err := VerifyDigest(v.pub, digest[:], watermark); err != nil {
		return err
	}
	v.memo.Put(digest, string(watermark))
	return nil
}
