package bufpool

import (
	"bytes"
	"crypto/rand"
	"io"
	"sync"
	"testing"
)

func TestTierSelection(t *testing.T) {
	cases := []struct {
		hint int
		want int
	}{
		{hint: 1, want: TierSmall},
		{hint: TierSmall, want: TierSmall},
		{hint: TierSmall + 1, want: TierMed},
		{hint: TierMed, want: TierMed},
		{hint: TierMed + 1, want: TierLarge},
		{hint: 512 << 20, want: TierLarge}, // clamped
		{hint: 0, want: TierMed},           // default tier
		{hint: -1, want: TierMed},
	}
	for _, c := range cases {
		b := Get(c.hint)
		if len(*b) != c.want {
			t.Errorf("Get(%d) len = %d, want %d", c.hint, len(*b), c.want)
		}
		Put(b)
	}
}

func TestPutForeignBufferDropped(t *testing.T) {
	b := make([]byte, 1234)
	Put(&b) // must not panic or poison a tier
	got := Get(TierSmall)
	if len(*got) != TierSmall {
		t.Fatalf("tier polluted: len = %d", len(*got))
	}
	Put(got)
}

func TestPutRestoresLength(t *testing.T) {
	b := Get(TierMed)
	*b = (*b)[:10]
	Put(b)
	// Whether or not we get the same buffer back, its length must be full.
	b2 := Get(TierMed)
	if len(*b2) != TierMed {
		t.Fatalf("recycled buffer len = %d, want %d", len(*b2), TierMed)
	}
	Put(b2)
}

func TestCopyCorrectness(t *testing.T) {
	for _, n := range []int{0, 1, TierSmall, TierMed - 1, TierMed, TierMed + 1, 3 * TierMed} {
		src := make([]byte, n)
		if _, err := rand.Read(src); err != nil {
			t.Fatal(err)
		}
		var dst bytes.Buffer
		written, err := CopySized(&dst, bytes.NewReader(src), int64(n))
		if err != nil {
			t.Fatalf("CopySized(%d): %v", n, err)
		}
		if written != int64(n) || !bytes.Equal(dst.Bytes(), src) {
			t.Fatalf("CopySized(%d): wrote %d, content match=%v", n, written, bytes.Equal(dst.Bytes(), src))
		}
	}
}

func TestCopyDefault(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 50000)
	var dst bytes.Buffer
	if _, err := CopySized(&dst, bytes.NewReader(src), -1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), src) {
		t.Fatal("CopySized(-1) corrupted content")
	}
}

// TestConcurrentGetPut exercises the pools under the race detector.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			hints := []int{1, TierSmall + 1, TierMed + 1}
			for j := 0; j < 200; j++ {
				b := Get(hints[(i+j)%3])
				(*b)[0] = byte(j)
				Put(b)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkCopyPooled(b *testing.B) {
	src := make([]byte, 256<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CopySized(io.Discard, bytes.NewReader(src), int64(len(src))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopyPlain(b *testing.B) {
	src := make([]byte, 256<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, 64<<10)
		if _, err := io.CopyBuffer(onlyWriter{io.Discard}, onlyReader{bytes.NewReader(src)}, buf); err != nil {
			b.Fatal(err)
		}
	}
}
