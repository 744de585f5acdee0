package integrity

import (
	"bytes"
	"crypto/md5"
	"testing"
	"testing/quick"
)

func testSigner(t *testing.T) *Signer {
	t.Helper()
	s, err := NewSigner(1024) // small key: tests only
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	return s
}

func TestNewSignerRejectsTinyKeys(t *testing.T) {
	if _, err := NewSigner(256); err == nil {
		t.Fatal("256-bit key accepted")
	}
}

func TestNewSignerFromKey(t *testing.T) {
	if _, err := NewSignerFromKey(nil); err == nil {
		t.Fatal("nil key accepted")
	}
	s := testSigner(t)
	s2, err := NewSignerFromKey(s.priv)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Public() != s.Public() {
		t.Fatal("wrapped signer has different public key")
	}
}

func TestWatermarkRoundTrip(t *testing.T) {
	s := testSigner(t)
	doc := []byte("a web document body")
	mark, err := s.Watermark(doc)
	if err != nil {
		t.Fatalf("Watermark: %v", err)
	}
	if err := Verify(s.Public(), doc, mark); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestWatermarkDigestDeterministic pins the property the live proxy's
// on-demand watermarks rest on: the signature is a pure function of (key,
// digest), so signing again — now, or from the persisted key after a
// restart — reproduces the bytes clients already hold.
func TestWatermarkDigestDeterministic(t *testing.T) {
	s := testSigner(t)
	priv, err := ParsePrivateKey(s.MarshalPrivateKey())
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := NewSignerFromKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest([]byte("a web document body"))
	first, err := s.WatermarkDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	for name, signer := range map[string]*Signer{"same signer": s, "reloaded key": reloaded} {
		again, err := signer.WatermarkDigest(digest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("%s: second signature over one digest differs", name)
		}
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	s := testSigner(t)
	doc := []byte("original content served by the origin")
	mark, err := s.Watermark(doc)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), doc...)
	tampered[0] ^= 1
	if err := Verify(s.Public(), tampered, mark); err != ErrTampered {
		t.Fatalf("tampered doc verified: %v", err)
	}
	// A truncated document also fails.
	if err := Verify(s.Public(), doc[:len(doc)-1], mark); err != ErrTampered {
		t.Fatalf("truncated doc verified: %v", err)
	}
	// A corrupted watermark fails.
	badMark := append([]byte(nil), mark...)
	badMark[3] ^= 0xFF
	if err := Verify(s.Public(), doc, badMark); err != ErrTampered {
		t.Fatalf("bad watermark verified: %v", err)
	}
}

func TestVerifyWrongKeyFails(t *testing.T) {
	s1 := testSigner(t)
	s2 := testSigner(t)
	doc := []byte("doc")
	mark, _ := s1.Watermark(doc)
	if err := Verify(s2.Public(), doc, mark); err != ErrTampered {
		t.Fatal("watermark verified under the wrong key")
	}
	if err := Verify(nil, doc, mark); err == nil {
		t.Fatal("nil public key accepted")
	}
}

func TestNoClientCanForge(t *testing.T) {
	// The §6.1 argument: without the proxy's private key a peer cannot
	// produce a matching watermark for altered content. A forger who
	// only controls the document and an arbitrary signature always
	// fails verification.
	s := testSigner(t)
	doc := []byte("forged content")
	forged := make([]byte, 128) // 1024-bit signature size
	for i := range forged {
		forged[i] = byte(i * 7)
	}
	if err := Verify(s.Public(), doc, forged); err != ErrTampered {
		t.Fatal("forged watermark verified")
	}
}

func TestDigestIsMD5(t *testing.T) {
	doc := []byte("digest me")
	want := md5.Sum(doc)
	if !bytes.Equal(Digest(doc), want[:]) {
		t.Fatal("Digest is not MD5")
	}
}

func TestPublicKeyPEMRoundTrip(t *testing.T) {
	s := testSigner(t)
	pemBytes, err := MarshalPublicKey(s.Public())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	pub, err := ParsePublicKey(pemBytes)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if pub.N.Cmp(s.Public().N) != 0 || pub.E != s.Public().E {
		t.Fatal("round-tripped key differs")
	}
}

func TestParsePublicKeyErrors(t *testing.T) {
	if _, err := ParsePublicKey([]byte("not pem")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParsePublicKey([]byte("-----BEGIN PUBLIC KEY-----\nAAAA\n-----END PUBLIC KEY-----\n")); err == nil {
		t.Error("bad DER accepted")
	}
}

// TestQuickWatermarkAllDocs: every document round-trips, and any single-bit
// flip is caught.
func TestQuickWatermarkAllDocs(t *testing.T) {
	s := testSigner(t)
	f := func(doc []byte, flip uint) bool {
		mark, err := s.Watermark(doc)
		if err != nil {
			t.Errorf("Watermark: %v", err)
			return false
		}
		if err := Verify(s.Public(), doc, mark); err != nil {
			t.Errorf("Verify: %v", err)
			return false
		}
		if len(doc) == 0 {
			return true
		}
		tampered := append([]byte(nil), doc...)
		tampered[int(flip%uint(len(doc)))] ^= byte(1 + flip%255)
		if err := Verify(s.Public(), tampered, mark); err != ErrTampered {
			t.Errorf("flip survived verification")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
