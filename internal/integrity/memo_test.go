package integrity

import (
	"crypto/md5"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// checkMemo reports a broken memo invariant: more entries than the
// capacity, a ring slot whose digest is missing from the map, or one digest
// holding two ring slots.
func checkMemo(m *Memo) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	limit := m.limit
	if limit == 0 {
		limit = MemoCap
	}
	if len(m.vals) > limit {
		return fmt.Errorf("memo holds %d entries, capacity %d", len(m.vals), limit)
	}
	if len(m.ring) != len(m.vals) {
		return fmt.Errorf("ring has %d slots for %d entries", len(m.ring), len(m.vals))
	}
	seen := make(map[[md5.Size]byte]bool, len(m.ring))
	for _, d := range m.ring {
		if seen[d] {
			return fmt.Errorf("digest %x holds two ring slots", d)
		}
		seen[d] = true
		if _, ok := m.vals[d]; !ok {
			return fmt.Errorf("ring slot %x not in the map", d)
		}
	}
	return nil
}

// TestMemoFIFOAndIdempotentPut: eviction is oldest-first by first insertion,
// and re-putting a present digest overwrites it without a second slot.
func TestMemoFIFOAndIdempotentPut(t *testing.T) {
	m := Memo{limit: 3}
	key := func(i int) [md5.Size]byte { return md5.Sum([]byte{byte(i)}) }
	for i := 0; i < 3; i++ {
		m.Put(key(i), "v")
	}
	m.Put(key(0), "again")
	if v, _ := m.Get(key(0)); v != "again" || m.Len() != 3 {
		t.Fatalf("re-put: value %q, len %d; want overwrite in place, len 3", v, m.Len())
	}
	m.Put(key(3), "v") // evicts key 0: the oldest insertion, re-put or not
	if _, ok := m.Get(key(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for i := 1; i <= 3; i++ {
		if _, ok := m.Get(key(i)); !ok {
			t.Fatalf("entry %d lost", i)
		}
	}
	if err := checkMemo(&m); err != nil {
		t.Fatal(err)
	}
}

// verifierCase is one (body, watermark) presentation and what the
// package-level VerifyDigest says about it.
type verifierCase struct {
	name string
	body []byte
	mark []byte
	want error
}

// verifierCases builds, for each of n bodies, the genuine mark and five
// kinds of bad one: bit-flipped, truncated, empty, another body's mark, and
// a genuine mark made with a second key.
func verifierCases(t testing.TB, s, other *Signer, n int) []verifierCase {
	t.Helper()
	var cases []verifierCase
	marks := make([][]byte, n)
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("document %d body", i))
		mark, err := s.Watermark(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		marks[i] = mark
	}
	for i, body := range bodies {
		flipped := append([]byte(nil), marks[i]...)
		flipped[i%len(flipped)] ^= 0x10
		foreign, err := other.Watermark(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []verifierCase{
			{name: "genuine", body: body, mark: marks[i]},
			{name: "bit-flipped", body: body, mark: flipped},
			{name: "truncated", body: body, mark: marks[i][:len(marks[i])-1]},
			{name: "empty", body: body},
			{name: "other digest's mark", body: body, mark: marks[(i+1)%n]},
			{name: "second key", body: body, mark: foreign},
		} {
			c.name = fmt.Sprintf("body %d %s", i, c.name)
			c.want = VerifyDigest(s.Public(), Digest(c.body), c.mark)
			cases = append(cases, c)
		}
	}
	return cases
}

// TestVerifierMatchesVerifyDigest drives random presentation sequences
// through a Verifier whose memo is small enough to evict: every outcome
// equals the package-level VerifyDigest, RSA runs exactly on the calls that
// missed, and a failing pair costs a full RSA operation every time.
func TestVerifierMatchesVerifyDigest(t *testing.T) {
	s, other := testSigner(t), testSigner(t)
	cases := verifierCases(t, s, other, 5)
	v := NewVerifier(s.Public())
	v.memo.limit = 3 // five genuine bodies: FIFO eviction forces re-verification
	rng := rand.New(rand.NewPCG(24, 1))

	var misses, hits, genuineMisses int64
	for i := 0; i < 3000; i++ {
		c := cases[rng.IntN(len(cases))]
		before := v.rsaOps.Load()
		hit, err := v.Verify(c.body, c.mark)
		if (err == nil) != (c.want == nil) || (err != nil && !errors.Is(err, ErrTampered)) {
			t.Fatalf("step %d, %s: Verifier says %v, VerifyDigest says %v", i, c.name, err, c.want)
		}
		ops := v.rsaOps.Load() - before
		switch {
		case hit && (ops != 0 || c.want != nil):
			t.Fatalf("step %d, %s: memo hit with %d RSA ops, want %v", i, c.name, ops, c.want)
		case !hit && ops != 1:
			t.Fatalf("step %d, %s: miss ran %d RSA ops, want 1", i, c.name, ops)
		}
		if hit {
			hits++
		} else {
			misses++
			if c.want == nil {
				genuineMisses++
			}
		}
		if err := checkMemo(&v.memo); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if got := v.rsaOps.Load(); got != misses {
		t.Fatalf("%d RSA operations for %d missed calls", got, misses)
	}
	// With five genuine bodies over three slots, evictions must have sent
	// genuine pairs back through RSA beyond their first verification.
	if hits == 0 || genuineMisses <= 5 {
		t.Fatalf("hits %d, genuine misses %d: the sequence did not exercise the memo and its eviction", hits, genuineMisses)
	}
}

// TestVerifierConcurrent: 32 goroutines on one verifier, on one shared pair
// and on pairs of their own, never see a wrong outcome; the memo never
// exceeds its capacity and no digest ever holds two ring slots. Run with
// -race.
func TestVerifierConcurrent(t *testing.T) {
	s, other := testSigner(t), testSigner(t)
	cases := verifierCases(t, s, other, 8)
	v := NewVerifier(s.Public())
	v.memo.limit = 4
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := cases[0] // the pair every goroutine shares
				if i%2 == 1 {
					c = cases[(g*7+i)%len(cases)]
				}
				if _, err := v.Verify(c.body, c.mark); (err == nil) != (c.want == nil) {
					t.Errorf("goroutine %d, %s: got %v, want %v", g, c.name, err, c.want)
					return
				}
				if err := checkMemo(&v.memo); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := checkMemo(&v.memo); err != nil {
		t.Fatal(err)
	}
}

// benchVerifier returns a 2048-bit verifier (the live key size) and one
// genuine pair over an 8 KiB body, the live.peer document size, so a hit's
// cost includes the MD5 pass every delivery still pays.
func benchVerifier(b *testing.B) (*Signer, []byte, []byte) {
	b.Helper()
	s, err := NewSigner(2048)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 8192)
	for i := range body {
		body[i] = byte(i * 31)
	}
	mark, err := s.Watermark(body)
	if err != nil {
		b.Fatal(err)
	}
	return s, body, mark
}

// BenchmarkVerifierMiss is the full path: MD5, one RSA verification, memo
// insert (a fresh verifier per iteration, so every call misses).
func BenchmarkVerifierMiss(b *testing.B) {
	s, body, mark := benchVerifier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewVerifier(s.Public()).Verify(body, mark); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierHit is the memo path: MD5 and one memo lookup, no RSA and
// no allocation.
func BenchmarkVerifierHit(b *testing.B) {
	s, body, mark := benchVerifier(b)
	v := NewVerifier(s.Public())
	if _, err := v.Verify(body, mark); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hit, err := v.Verify(body, mark); !hit || err != nil {
			b.Fatalf("hit %v, err %v", hit, err)
		}
	}
}
