package cache

import (
	"testing"

	"baps/internal/intern"
)

// Hot-path micro-benchmarks of the cache substrate the simulator's inner
// loop runs on. Kept name-stable so recorded runs remain comparable across
// representation changes: the same names measured the string-keyed map
// caches before the interned-ID refactor.

const benchDocs = 4096

func BenchmarkCacheLRUGet(b *testing.B) {
	c := MustNewID(LRU, 1<<30)
	for i := 0; i < benchDocs; i++ {
		c.Put(IDDoc{ID: intern.ID(i), Size: 8192})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(intern.ID(i % benchDocs))
	}
}

func BenchmarkCacheLRUPutEvict(b *testing.B) {
	c := MustNewID(LRU, 1<<20) // steady eviction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(IDDoc{ID: intern.ID(i % benchDocs), Size: 8192})
	}
}

func BenchmarkCacheGDSFPutEvict(b *testing.B) {
	c := MustNewID(GDSF, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(IDDoc{ID: intern.ID(i % benchDocs), Size: 8192})
	}
}

func BenchmarkCacheTwoTierGetTier(b *testing.B) {
	tt, err := NewIDTwoTier(LRU, 1<<30, 1<<26)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchDocs; i++ {
		tt.Put(IDDoc{ID: intern.ID(i), Size: 8192})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.GetTier(intern.ID(i % benchDocs))
	}
}
