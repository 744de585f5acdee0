package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"baps/internal/intern"
)

// testSyms interns test URLs to document IDs; Sync so concurrent tests may
// intern from multiple goroutines.
var testSyms = intern.NewSync()

func docID(url string) intern.ID { return testSyms.Intern(url) }

func entry(c int, url string, size int64, stamp float64) Entry {
	return Entry{Client: c, Doc: docID(url), Size: size, Stamp: stamp}
}

func TestAddLookupRemove(t *testing.T) {
	x := New(SelectFirst)
	x.Add(entry(1, "u", 10, 1))
	x.Add(entry(2, "u", 10, 2))
	x.Add(entry(1, "v", 20, 3))

	hs := x.Lookup(docID("u"))
	if len(hs) != 2 || hs[0].Client != 1 || hs[1].Client != 2 {
		t.Fatalf("Lookup(u) = %+v", hs)
	}
	if !x.Has(1, docID("u")) || x.Has(3, docID("u")) {
		t.Fatal("Has wrong")
	}
	if e, ok := x.Get(1, docID("v")); !ok || e.Size != 20 {
		t.Fatalf("Get(1,v) = %+v, %v", e, ok)
	}
	if !x.Remove(1, docID("u")) {
		t.Fatal("Remove(1,u) = false")
	}
	if x.Remove(1, docID("u")) {
		t.Fatal("second Remove(1,u) = true")
	}
	if x.Has(1, docID("u")) {
		t.Fatal("entry survived Remove")
	}
	if len(x.Lookup(docID("u"))) != 1 {
		t.Fatal("other holder lost")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	if x.URLCount() != 2 {
		t.Fatalf("URLCount = %d, want 2", x.URLCount())
	}
}

func TestAddRefreshesEntry(t *testing.T) {
	x := New(SelectFirst)
	x.Add(entry(1, "u", 10, 1))
	x.Add(entry(1, "u", 99, 5)) // refresh: new size/stamp
	if e, _ := x.Get(1, docID("u")); e.Size != 99 || e.Stamp != 5 {
		t.Fatalf("refresh lost: %+v", e)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d after refresh", x.Len())
	}
}

func TestSelectExcludesRequester(t *testing.T) {
	x := New(SelectFirst)
	x.Add(entry(1, "u", 10, 1))
	if _, ok := x.Select(docID("u"), 1); ok {
		t.Fatal("Select returned the requester itself")
	}
	if _, ok := x.Select(docID("missing"), 0); ok {
		t.Fatal("Select found a holder for an unindexed URL")
	}
	x.Add(entry(2, "u", 10, 2))
	e, ok := x.Select(docID("u"), 1)
	if !ok || e.Client != 2 {
		t.Fatalf("Select = %+v, %v", e, ok)
	}
}

func TestSelectMostRecent(t *testing.T) {
	x := New(SelectMostRecent)
	x.Add(entry(1, "u", 10, 5))
	x.Add(entry(2, "u", 10, 9))
	x.Add(entry(3, "u", 10, 2))
	if e, _ := x.Select(docID("u"), 0); e.Client != 2 {
		t.Fatalf("most-recent chose client %d, want 2", e.Client)
	}
	// Ties break to the lowest client id.
	y := New(SelectMostRecent)
	y.Add(entry(7, "u", 10, 4))
	y.Add(entry(3, "u", 10, 4))
	if e, _ := y.Select(docID("u"), 0); e.Client != 3 {
		t.Fatalf("tie-break chose %d, want 3", e.Client)
	}
}

func TestSelectLeastLoaded(t *testing.T) {
	x := New(SelectLeastLoaded)
	x.Add(entry(1, "u", 10, 1))
	x.Add(entry(2, "u", 10, 1))
	first, _ := x.Select(docID("u"), 0)  // both at 0 → client 1
	second, _ := x.Select(docID("u"), 0) // client 1 now loaded → client 2
	if first.Client != 1 || second.Client != 2 {
		t.Fatalf("least-loaded order: %d then %d, want 1 then 2", first.Client, second.Client)
	}
	if x.Served(1) != 1 || x.Served(2) != 1 {
		t.Fatalf("served counts: %d/%d", x.Served(1), x.Served(2))
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{SelectMostRecent: "most-recent", SelectLeastLoaded: "least-loaded", SelectFirst: "first", Strategy(9): "Strategy(9)"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestClientDocsAndDropClient(t *testing.T) {
	x := New(SelectFirst)
	x.Add(entry(1, "b", 10, 1))
	x.Add(entry(1, "a", 10, 1))
	x.Add(entry(2, "a", 10, 1))
	docs := x.ClientDocs(1)
	if len(docs) != 2 || docs[0].Doc >= docs[1].Doc {
		t.Fatalf("ClientDocs = %+v (want 2 entries in doc-ID order)", docs)
	}
	got := map[intern.ID]bool{docs[0].Doc: true, docs[1].Doc: true}
	if !got[docID("a")] || !got[docID("b")] {
		t.Fatalf("ClientDocs = %+v, want {a, b}", docs)
	}
	if n := x.DropClient(1); n != 2 {
		t.Fatalf("DropClient removed %d, want 2", n)
	}
	if x.Has(1, docID("a")) || !x.Has(2, docID("a")) {
		t.Fatal("DropClient wrong entries removed")
	}
	if len(x.ClientDocs(1)) != 0 {
		t.Fatal("dropped client still has docs")
	}
}

func TestResyncClient(t *testing.T) {
	x := New(SelectFirst)
	x.Add(entry(1, "old1", 10, 1))
	x.Add(entry(1, "old2", 10, 1))
	x.Add(entry(2, "old1", 10, 1))
	x.ResyncClient(1, []Entry{entry(0 /* overwritten */, "new1", 5, 2), entry(0, "new2", 5, 2)})
	if x.Has(1, docID("old1")) || x.Has(1, docID("old2")) {
		t.Fatal("resync kept stale entries")
	}
	if !x.Has(1, docID("new1")) || !x.Has(1, docID("new2")) {
		t.Fatal("resync lost new entries")
	}
	if !x.Has(2, docID("old1")) {
		t.Fatal("resync disturbed another client")
	}
}

// TestConcurrentIndexAccess: concurrent use is Sharded's guarantee (an
// Index is single-goroutine), so the mixed add/lookup/select/remove load
// runs against a Sharded directory; -race in CI surfaces data races.
func TestConcurrentIndexAccess(t *testing.T) {
	x := NewSharded(SelectMostRecent, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				doc := docID(fmt.Sprintf("u%d", i%50))
				x.Add(Entry{Client: g, Doc: doc, Size: 10, Stamp: float64(i)})
				x.Lookup(doc)
				x.Select(doc, g)
				if i%3 == 0 {
					x.Remove(g, doc)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSpaceEstimates(t *testing.T) {
	// The paper's §5 example: 100 clients × ~1000 cached pages each with
	// 16-byte MD5 signatures should land in the low megabytes.
	got := SpaceEstimate(100 * 1000)
	if got < 1<<20 || got > 8<<20 {
		t.Errorf("SpaceEstimate(100k) = %d bytes, want a few MB", got)
	}
	if b := BloomSpaceEstimate(100, 1000, 16); b != 100*1000*16 {
		t.Errorf("BloomSpaceEstimate = %d", b)
	}
}

func TestBloomIndex(t *testing.T) {
	b, err := NewBloomIndex(1<<14, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(1, "u")
	b.Add(2, "u")
	b.Add(2, "v")
	got := b.Candidates("u", 1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Candidates(u, exclude 1) = %v", got)
	}
	b.Remove(2, "u")
	for _, c := range b.Candidates("u", -1) {
		if c == 2 {
			t.Fatal("client 2 still candidate after Remove")
		}
	}
	if b.SizeBytes() != 2*(1<<14) {
		t.Fatalf("SizeBytes = %d", b.SizeBytes())
	}
	if _, err := NewBloomIndex(0, 4); err == nil {
		t.Error("NewBloomIndex(0,4) succeeded")
	}
}

// TestQuickIndexMatchesReference drives the index against a reference
// map-of-maps with random operations.
func TestQuickIndexMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := New(SelectFirst)
		ref := map[string]map[int]bool{}
		for i := 0; i < 500; i++ {
			c := rng.Intn(6)
			url := fmt.Sprintf("u%d", rng.Intn(30))
			switch rng.Intn(3) {
			case 0:
				x.Add(entry(c, url, 1, float64(i)))
				if ref[url] == nil {
					ref[url] = map[int]bool{}
				}
				ref[url][c] = true
			case 1:
				got := x.Remove(c, docID(url))
				want := ref[url][c]
				if got != want {
					t.Errorf("seed %d op %d: Remove(%d,%s)=%v want %v", seed, i, c, url, got, want)
					return false
				}
				delete(ref[url], c)
			case 2:
				got := x.Lookup(docID(url))
				if len(got) != len(ref[url]) {
					t.Errorf("seed %d op %d: Lookup(%s) len %d want %d", seed, i, url, len(got), len(ref[url]))
					return false
				}
				for _, e := range got {
					if !ref[url][e.Client] {
						t.Errorf("seed %d op %d: phantom holder %d for %s", seed, i, e.Client, url)
						return false
					}
				}
			}
		}
		// Global consistency: per-client view matches per-document view.
		total := 0
		for url, holders := range ref {
			for c := range holders {
				if !x.Has(c, docID(url)) {
					t.Errorf("seed %d: missing (%d,%s)", seed, c, url)
					return false
				}
				total++
			}
		}
		if x.Len() != total {
			t.Errorf("seed %d: Len %d want %d", seed, x.Len(), total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuarantineShelvesAndRestoresInOneStep(t *testing.T) {
	x := New(SelectMostRecent)
	for i := 0; i < 4; i++ {
		x.Add(Entry{Client: 1, Doc: docID(fmt.Sprintf("http://x/%d", i)), Size: 10})
	}
	x.Add(Entry{Client: 2, Doc: docID("http://x/0"), Size: 10})

	if n := x.Quarantine(1); n != 4 {
		t.Fatalf("Quarantine shelved %d entries, want 4", n)
	}
	if !x.Quarantined(1) || x.Quarantined(2) {
		t.Fatal("quarantine flags wrong")
	}
	// Entries survive but are invisible to holder selection.
	if x.Len() != 5 {
		t.Fatalf("Len = %d after quarantine, want 5 (entries retained)", x.Len())
	}
	if x.QuarantinedEntries() != 4 {
		t.Fatalf("QuarantinedEntries = %d, want 4", x.QuarantinedEntries())
	}
	if got := x.Ordered(docID("http://x/1"), -1); len(got) != 0 {
		t.Fatalf("Ordered returned quarantined holder: %v", got)
	}
	if got := x.Ordered(docID("http://x/0"), -1); len(got) != 1 || got[0].Client != 2 {
		t.Fatalf("Ordered(/0) = %v, want only client 2", got)
	}
	if _, ok := x.Select(docID("http://x/1"), -1); ok {
		t.Fatal("Select picked a quarantined holder")
	}
	// Quarantined holders are listed for half-open probing.
	if got := x.OrderedQuarantined(docID("http://x/0"), -1); len(got) != 1 || got[0].Client != 1 {
		t.Fatalf("OrderedQuarantined = %v, want client 1", got)
	}

	// One-step restore.
	if n := x.Unquarantine(1); n != 4 {
		t.Fatalf("Unquarantine restored %d entries, want 4", n)
	}
	if got := x.Ordered(docID("http://x/1"), -1); len(got) != 1 || got[0].Client != 1 {
		t.Fatalf("holder not restored: %v", got)
	}
	if x.QuarantinedEntries() != 0 {
		t.Fatal("QuarantinedEntries nonzero after restore")
	}
}

func TestDropClientClearsQuarantine(t *testing.T) {
	x := New(SelectFirst)
	x.Add(Entry{Client: 7, Doc: docID("http://x/a")})
	x.Quarantine(7)
	x.DropClient(7)
	if x.Quarantined(7) {
		t.Fatal("DropClient left quarantine flag")
	}
	if x.QuarantinedEntries() != 0 {
		t.Fatal("entries counted after drop")
	}
	// Re-registration under the same id starts clean.
	x.Add(Entry{Client: 7, Doc: docID("http://x/b")})
	if got := x.Ordered(docID("http://x/b"), -1); len(got) != 1 {
		t.Fatalf("re-added client invisible: %v", got)
	}
}
