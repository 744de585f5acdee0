package proxy

import (
	"context"
	"crypto/md5"
	"encoding/base64"
	"fmt"

	"baps/internal/integrity"
)

// keyPair is the proxy's watermark key: the signer and its public half in the
// PEM form /register and /pubkey hand out.
type keyPair struct {
	signer *integrity.Signer
	pubPEM []byte
}

// signingKey returns the watermark key, deriving it on first demand like the
// watermarks it signs: a proxy whose clients are all anonymous never needs
// one, and an RSA key generation is the largest cost of starting a proxy.
// With a data directory the first demand loads DIR/key.pem, or generates a
// pair and makes it durable before handing it out (loadOrCreateSigner).
// Concurrent first demands load or generate once, in work not tied to any
// one request's context. A failure is returned to the caller, which fails
// closed, and nothing is memoised: the next demand tries again.
func (s *Server) signingKey() (*keyPair, error) {
	if k := s.key.Load(); k != nil {
		return k, nil
	}
	k, _, err := s.keyFlight.Do(context.Background(), "", func() (*keyPair, error) {
		if k := s.key.Load(); k != nil {
			return k, nil
		}
		signer, err := s.keySource()
		if err != nil {
			return nil, err
		}
		pubPEM, err := integrity.MarshalPublicKey(signer.Public())
		if err != nil {
			return nil, err
		}
		k := &keyPair{signer: signer, pubPEM: pubPEM}
		s.key.Store(k)
		return k, nil
	})
	if err != nil && s.logger != nil {
		s.logger.Warn("watermark key unavailable", "err", err)
	}
	return k, err
}

// watermarkFor returns the §6.1 watermark {MD5(D)}K⁻¹proxy for digest, in
// header form. It is the only place the proxy signs: the watermark is a
// value derived on demand for a client that can verify and re-serve the
// document, not state produced at acquisition. PKCS#1 v1.5 signing is a
// deterministic function of (key, digest), so a memo entry (s.marks, keyed
// by digest, holding the header form) never goes stale and a dropped one is
// re-derived byte-identically. Concurrent first demands for one digest sign
// once; the wait is bounded by a single private-key operation (plus, on the
// proxy's very first demand, obtaining the key), so it is not tied to any
// one request's context.
func (s *Server) watermarkFor(digest []byte) (string, error) {
	if len(digest) != md5.Size {
		return "", fmt.Errorf("proxy: watermark: %d-byte digest", len(digest))
	}
	key := [md5.Size]byte(digest)
	if mark, ok := s.marks.Get(key); ok {
		s.m.watermarkMemoHits.Inc()
		return mark, nil
	}
	signed := false
	mark, _, err := s.markFlight.Do(context.Background(), string(digest), func() (string, error) {
		// A round that completed between the lookup above and this one
		// already filled the memo.
		if mark, ok := s.marks.Get(key); ok {
			return mark, nil
		}
		k, err := s.signingKey()
		if err != nil {
			return "", err
		}
		sig, err := k.signer.WatermarkDigest(digest)
		if err != nil {
			return "", err
		}
		signed = true
		mark := base64.StdEncoding.EncodeToString(sig)
		s.marks.Put(key, mark)
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
