package docstore

import (
	"bytes"
	"crypto/md5"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/cache"
)

// TestDigestOncePerVersion: the 32 registered followers of one coalesced
// miss all need the digest of the body they share, which the store records
// with none. They ask at once, and MD5 runs once; a later ask finds the
// digest recorded and derives nothing.
func TestDigestOncePerVersion(t *testing.T) {
	s, err := New(Config{Policy: cache.LRU, Capacity: 1 << 20, MemCapacity: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	var derived atomic.Int32
	s.sum = func(b []byte) [md5.Size]byte {
		derived.Add(1)
		time.Sleep(time.Millisecond) // keep the first derivation in flight while the others ask
		return md5.Sum(b)
	}
	const url = "http://o/shared"
	body := bytes.Repeat([]byte("shared body "), 5000/12)
	s.Store(url, body, Meta{Version: 3, Size: int64(len(body))})

	want := md5.Sum(body)
	start := make(chan struct{})
	got := make([][]byte, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = s.Digest(url, 3, body)
		}()
	}
	close(start)
	wg.Wait()
	for i, d := range got {
		if !bytes.Equal(d, want[:]) {
			t.Fatalf("follower %d got digest %x, want %x", i, d, want)
		}
	}
	if n := derived.Load(); n != 1 {
		t.Fatalf("%d followers derived the digest %d times, want once", len(got), n)
	}
	if _, m, _, _ := s.Peek(url); !bytes.Equal(m.Digest, want[:]) {
		t.Fatalf("recorded digest %x, want %x", m.Digest, want)
	}
	s.Digest(url, 3, body)
	if n := derived.Load(); n != 1 {
		t.Fatalf("a digest already recorded was derived again (%d derivations)", n)
	}
}
