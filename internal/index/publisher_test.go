package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"baps/internal/intern"
)

// onePublisher is one client's view of a population of publishers, so the
// protocol tests below read as one browser's.
type onePublisher struct {
	ps     *Publishers
	client int
}

func newPublisher(idx *Index, client int, mode Mode, threshold float64) (onePublisher, error) {
	ps, err := NewPublishers(idx, client+1, mode, threshold)
	return onePublisher{ps, client}, err
}

func (p onePublisher) OnInsert(e Entry, resident int)      { p.ps.OnInsert(p.client, e, resident) }
func (p onePublisher) OnEvict(doc intern.ID, resident int) { p.ps.OnEvict(p.client, doc, resident) }
func (p onePublisher) Flush()                              { p.ps.Flush(p.client) }
func (p onePublisher) Pending() int                        { return p.ps.Pending(p.client) }
func (p onePublisher) Flushes() int                        { return p.ps.Flushes(p.client) }
func (p onePublisher) Messages() int64                     { return p.ps.Messages(p.client) }
func (p onePublisher) EntriesShipped() int64               { return p.ps.EntriesShipped(p.client) }
func (p onePublisher) Mode() Mode                          { return p.ps.Mode() }

func TestNewPublisherValidation(t *testing.T) {
	x := New(SelectFirst)
	if _, err := newPublisher(nil, 1, Immediate, 0); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := newPublisher(x, 1, Periodic, 0); err == nil {
		t.Error("zero threshold accepted for Periodic")
	}
	if _, err := newPublisher(x, 1, Periodic, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := newPublisher(x, 1, Immediate, 0); err != nil {
		t.Errorf("Immediate with zero threshold rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Immediate.String() != "immediate" || Periodic.String() != "periodic" {
		t.Error("Mode.String wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown Mode.String wrong")
	}
}

func TestImmediatePublisher(t *testing.T) {
	x := New(SelectFirst)
	p, err := newPublisher(x, 3, Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.OnInsert(Entry{Doc: docID("u"), Size: 10}, 1)
	if !x.Has(3, docID("u")) {
		t.Fatal("immediate insert not visible")
	}
	p.OnEvict(docID("u"), 0)
	if x.Has(3, docID("u")) {
		t.Fatal("immediate evict not visible")
	}
	if p.Pending() != 0 || p.Flushes() != 0 {
		t.Fatalf("immediate mode tracked pending=%d flushes=%d", p.Pending(), p.Flushes())
	}
	if p.Mode() != Immediate {
		t.Fatal("Mode() wrong")
	}
}

func TestPeriodicPublisherBatches(t *testing.T) {
	x := New(SelectFirst)
	// Threshold 0.5 with 10 resident docs → flush at 5 changes.
	p, err := newPublisher(x, 1, Periodic, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.OnInsert(Entry{Doc: docID(fmt.Sprintf("u%d", i)), Size: 1}, 10)
	}
	if x.Len() != 0 {
		t.Fatalf("changes visible before threshold: Len=%d", x.Len())
	}
	if p.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", p.Pending())
	}
	p.OnInsert(Entry{Doc: docID("u4"), Size: 1}, 10) // 5th change → flush
	if x.Len() != 5 {
		t.Fatalf("flush did not apply: Len=%d", x.Len())
	}
	if p.Flushes() != 1 || p.Pending() != 0 {
		t.Fatalf("flushes=%d pending=%d", p.Flushes(), p.Pending())
	}
}

func TestPeriodicEvictCancelsPendingAdd(t *testing.T) {
	x := New(SelectFirst)
	p, _ := newPublisher(x, 1, Periodic, 1.0)
	p.OnInsert(Entry{Doc: docID("u"), Size: 1}, 100)
	p.OnEvict(docID("u"), 100)
	p.Flush()
	if x.Has(1, docID("u")) {
		t.Fatal("evicted-before-flush doc leaked into index")
	}
}

func TestPeriodicAddCancelsPendingRemove(t *testing.T) {
	x := New(SelectFirst)
	x.Add(Entry{Client: 1, Doc: docID("u"), Size: 1})
	p, _ := newPublisher(x, 1, Periodic, 1.0)
	p.OnEvict(docID("u"), 100)
	p.OnInsert(Entry{Doc: docID("u"), Size: 2}, 100)
	p.Flush()
	if e, ok := x.Get(1, docID("u")); !ok || e.Size != 2 {
		t.Fatalf("re-added doc lost: %+v %v", e, ok)
	}
}

func TestFlushNoopWhenEmpty(t *testing.T) {
	x := New(SelectFirst)
	p, _ := newPublisher(x, 1, Periodic, 0.5)
	p.Flush()
	if p.Flushes() != 0 {
		t.Fatal("empty Flush counted")
	}
}

func TestPeriodicStalenessWindow(t *testing.T) {
	// Demonstrates the §2/§5 staleness semantics: between flushes the index
	// claims a document the browser evicted (false hit).
	x := New(SelectFirst)
	x.Add(Entry{Client: 1, Doc: docID("u"), Size: 1})
	p, _ := newPublisher(x, 1, Periodic, 1.0)
	p.OnEvict(docID("u"), 1000)
	if !x.Has(1, docID("u")) {
		t.Fatal("eviction visible before flush — not periodic semantics")
	}
	p.Flush()
	if x.Has(1, docID("u")) {
		t.Fatal("eviction lost after flush")
	}
}

// TestQuickPublisherConvergence: after an arbitrary op sequence plus a final
// Flush, the index view of the client equals the ground-truth resident set.
func TestQuickPublisherConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := New(SelectFirst)
		mode := Immediate
		if seed%2 == 0 {
			mode = Periodic
		}
		p, err := newPublisher(x, 2, mode, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		resident := map[string]bool{}
		for i := 0; i < 400; i++ {
			url := fmt.Sprintf("u%d", rng.Intn(40))
			if rng.Intn(2) == 0 {
				resident[url] = true
				p.OnInsert(Entry{Doc: docID(url), Size: 1, Stamp: float64(i)}, len(resident))
			} else {
				delete(resident, url)
				p.OnEvict(docID(url), len(resident))
			}
		}
		p.Flush()
		docs := x.ClientDocs(2)
		if len(docs) != len(resident) {
			t.Errorf("seed %d (%v): index has %d docs, truth %d", seed, mode, len(docs), len(resident))
			return false
		}
		for _, e := range docs {
			if !resident[testSyms.String(e.Doc)] {
				t.Errorf("seed %d (%v): phantom doc %d", seed, mode, e.Doc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
