package index

import (
	"testing"

	"baps/internal/intern"
)

// Hot-path micro-benchmarks of the browser index. Name-stable across
// representation changes so recorded runs stay comparable.

func BenchmarkIndexAddRemoveHot(b *testing.B) {
	x := New(SelectMostRecent)
	x.Grow(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := intern.ID(i % 8192)
		x.Add(Entry{Client: i % 64, Doc: doc, Size: 8192, Stamp: float64(i)})
		if i%3 == 0 {
			x.Remove(i%64, doc)
		}
	}
}

// BenchmarkIndexOrdered measures the holder-selection walk the simulator
// performs on every proxy miss under the browsers-aware organization.
func BenchmarkIndexOrdered(b *testing.B) {
	x := New(SelectMostRecent)
	x.Grow(1024)
	for i := 0; i < 8192; i++ {
		x.Add(Entry{Client: i % 64, Doc: intern.ID(i % 1024), Size: 8192, Stamp: float64(i)})
	}
	var buf []Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.AppendOrdered(buf[:0], intern.ID(i%1024), i%64, 0)
	}
}

// BenchmarkShardedOrdered is BenchmarkIndexOrdered against the live proxy's
// lock-striped variant, exercising the shard-selection path.
func BenchmarkShardedOrdered(b *testing.B) {
	x := NewSharded(SelectMostRecent, 0)
	for i := 0; i < 8192; i++ {
		x.Add(Entry{Client: i % 64, Doc: intern.ID(i % 1024), Size: 8192, Stamp: float64(i)})
	}
	var buf []Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.AppendOrdered(buf[:0], intern.ID(i%1024), i%64, 0)
	}
}
