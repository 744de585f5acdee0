package index

import (
	"runtime"
	"testing"
	"unsafe"

	"baps/internal/intern"
)

// heapBytes is the live heap after a collection.
func heapBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Once the arena is warm, adding and removing holders allocates nothing:
// blocks come off the free lists.
func TestIndexSteadyStateAllocs(t *testing.T) {
	x := New(SelectMostRecent)
	x.Grow(1024)
	i := 0
	churn := func() {
		doc := intern.ID(i % 1024)
		x.Add(Entry{Client: i % 64, Doc: doc, Size: 8192, Stamp: float64(i)})
		x.Remove((i+17)%64, doc)
		i++
	}
	for range 1 << 17 {
		churn()
	}
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("steady-state Add/Remove made %.3f allocations, want 0", allocs)
	}
}

// TestIndexFootprint pins the index's memory per document ID and per live
// holder. A head is 8 B, so an empty table costs 8 B per ID (a slice header
// per document cost 24 B). The holder pass moves the population's holders
// from one half of the documents to the other: each of the first 16 384
// documents gets 16 holders and falls back to one, then each of the next
// 16 384 gets 16. The second half reuses the 16-record blocks the first
// half freed, so the index holds 51.9 B per live holder (measured on amd64:
// 40 B records, a one-holder document's 2-record block, the arena's append
// headroom and the heads). Per-document slices, which keep their high-water
// capacity, held 93.2 B per holder and 24 B per ID on the same pass.
func TestIndexFootprint(t *testing.T) {
	const ids = 1 << 20
	base := heapBytes()
	x := New(SelectMostRecent)
	x.Grow(ids)
	perID := float64(heapBytes()-base) / ids
	runtime.KeepAlive(x)

	const docs, holders = 1 << 14, 16
	base = heapBytes()
	y := New(SelectMostRecent)
	for doc := intern.ID(0); doc < 2*docs; doc++ {
		for c := range holders {
			y.Add(Entry{Client: c, Doc: doc, Size: 1})
		}
		if doc < docs {
			for c := 1; c < holders; c++ {
				y.Remove(c, doc)
			}
		}
	}
	live := y.Len()
	perHolder := float64(heapBytes()-base) / float64(live)
	runtime.KeepAlive(y)

	t.Logf("%.2f B per document ID, %.1f B per live holder (%d holders)", perID, perHolder, live)
	if perID > 8.5 || perHolder > 56 {
		t.Errorf("footprint %.2f B per document ID, %.1f B per live holder; bounds 8.5 and 56", perID, perHolder)
	}
}

// A browser's publisher is its counters and a pointer to the batching maps
// it makes on its first change: index, mode and threshold are the
// population's.
func TestPublisherFootprint(t *testing.T) {
	if size := unsafe.Sizeof(publisher{}); size > 32 {
		t.Fatalf("a publisher is %d B, bound 32", size)
	}
	const browsers = 1 << 16
	base := heapBytes()
	ps, err := NewPublishers(New(SelectFirst), browsers, Batched, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	perBrowser := float64(heapBytes()-base) / browsers
	runtime.KeepAlive(ps)
	t.Logf("%.1f B per browser", perBrowser)
	if perBrowser > 33 {
		t.Errorf("publishers cost %.1f B per browser; bound 33", perBrowser)
	}
}
