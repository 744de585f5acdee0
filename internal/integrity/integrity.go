// Package integrity implements the paper's §6.1 data-integrity scheme: a
// digital watermark that lets a requesting browser verify that a document
// received from a peer browser was not tampered with.
//
// The watermark for a document D is the MD5 message digest of D encrypted
// with the proxy server's private key — i.e. an RSA signature over MD5,
// exactly the construction the paper describes ({MD5(D)}K⁻¹proxy). The paper
// has the proxy produce it on first obtaining the document; the live proxy
// records only the digest then, and produces the watermark on first demand
// by a client that can verify it and re-serve the document (a registered
// browser), handing it over alongside the document. The key pair is derived
// the same way: the proxy generates (or loads) it on the first demand for a
// watermark or for its public key, so a proxy that only anonymous clients use
// never runs NewSigner, the costliest call here. PKCS#1 v1.5 signing is
// deterministic, so the watermark is a pure function of (key, digest):
// produced late, re-derived after a restart, or memoised, it is the same
// bytes. Any client can verify with the proxy's public key, and no client
// can forge a matching watermark because only the proxy knows the private
// key.
//
// The package-level functions stay exactly one RSA operation per call:
// WatermarkDigest one signature, Verify and VerifyDigest one public-key
// check. Memoisation lives with the callers, on the one bounded Memo type
// defined here: the proxy's sign memo (internal/proxy/watermark.go) keys the
// watermark it derived by digest, and each agent host's Verifier keys the
// (digest, watermark) pairs that already verified under the proxy's current
// key, so a host pays one RSA verification per distinct document, not one
// per delivery.
//
// MD5 is used because the paper (2002) specifies it (RFC 1321); it is of
// course not collision-resistant by modern standards, and the construction
// here is parameterized only in key size, not hash, to stay faithful to the
// protocol being reproduced.
package integrity

import (
	"crypto"
	"crypto/md5"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
)

// Signer holds the proxy's private key and produces watermarks.
type Signer struct {
	priv *rsa.PrivateKey
}

// MinKeyBits is the smallest key size NewSigner accepts.
const MinKeyBits = 512

// NewSigner generates a fresh RSA key pair of the given bit size (use at
// least 2048 outside tests).
func NewSigner(bits int) (*Signer, error) {
	if bits < MinKeyBits {
		return nil, fmt.Errorf("integrity: key size %d too small", bits)
	}
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("integrity: generate key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// NewSignerFromKey wraps an existing private key.
func NewSignerFromKey(priv *rsa.PrivateKey) (*Signer, error) {
	if priv == nil {
		return nil, errors.New("integrity: nil private key")
	}
	return &Signer{priv: priv}, nil
}

// Public returns the verification key to distribute to clients.
func (s *Signer) Public() *rsa.PublicKey { return &s.priv.PublicKey }

// Digest computes the MD5 message digest of a document.
func Digest(doc []byte) []byte {
	sum := md5.Sum(doc)
	return sum[:]
}

// Watermark signs the document's MD5 digest with the proxy's private key.
func (s *Signer) Watermark(doc []byte) ([]byte, error) {
	return s.WatermarkDigest(Digest(doc))
}

// WatermarkDigest signs an already-computed MD5 digest. The live proxy
// computes the digest incrementally while the body streams off the wire, so
// signing must not force a second pass over the document.
func (s *Signer) WatermarkDigest(digest []byte) ([]byte, error) {
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.priv, crypto.MD5, digest)
	if err != nil {
		return nil, fmt.Errorf("integrity: sign: %w", err)
	}
	return sig, nil
}

// ErrTampered is returned by Verify when the document does not match its
// watermark.
var ErrTampered = errors.New("integrity: watermark verification failed")

// Verify checks a document against its watermark under the proxy's public
// key. A nil error means the document is exactly the one the proxy signed.
func Verify(pub *rsa.PublicKey, doc, watermark []byte) error {
	return VerifyDigest(pub, Digest(doc), watermark)
}

// VerifyDigest checks an already-computed MD5 digest against a watermark
// (the streamed-delivery twin of Verify).
func VerifyDigest(pub *rsa.PublicKey, digest, watermark []byte) error {
	if pub == nil {
		return errors.New("integrity: nil public key")
	}
	if err := rsa.VerifyPKCS1v15(pub, crypto.MD5, digest, watermark); err != nil {
		return ErrTampered
	}
	return nil
}

// MarshalPublicKey encodes the proxy's public key as PEM (PKIX), the format
// the live proxy serves at /pubkey.
func MarshalPublicKey(pub *rsa.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("integrity: marshal public key: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der}), nil
}

// ParsePublicKey decodes a PEM (PKIX) RSA public key.
func ParsePublicKey(pemBytes []byte) (*rsa.PublicKey, error) {
	block, _ := pem.Decode(pemBytes)
	if block == nil {
		return nil, errors.New("integrity: no PEM block found")
	}
	key, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("integrity: parse public key: %w", err)
	}
	pub, ok := key.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("integrity: not an RSA key: %T", key)
	}
	return pub, nil
}

// MarshalPrivateKey encodes the signing key as PEM (PKCS#1) — the format the
// crash-safe proxy persists under its data directory so watermarks issued
// before a restart keep verifying after it.
func (s *Signer) MarshalPrivateKey() []byte {
	return pem.EncodeToMemory(&pem.Block{
		Type:  "RSA PRIVATE KEY",
		Bytes: x509.MarshalPKCS1PrivateKey(s.priv),
	})
}

// ParsePrivateKey decodes a PEM (PKCS#1) RSA private key.
func ParsePrivateKey(pemBytes []byte) (*rsa.PrivateKey, error) {
	block, _ := pem.Decode(pemBytes)
	if block == nil {
		return nil, errors.New("integrity: no PEM block found")
	}
	priv, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("integrity: parse private key: %w", err)
	}
	return priv, nil
}
