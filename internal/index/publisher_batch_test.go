package index

import "testing"

// TestBatchedPublisherShipsOnlyDeltas pins the §5 message accounting that
// separates the three protocols: Batched pays one message per flush like
// Periodic, but ships only the net deltas instead of the full directory.
func TestBatchedPublisherShipsOnlyDeltas(t *testing.T) {
	x := New(SelectFirst)
	p, err := newPublisher(x, 1, Batched, 1) // flush only when asked
	if err != nil {
		t.Fatal(err)
	}
	const resident = 40
	p.OnInsert(Entry{Doc: docID("a"), Size: 1}, resident)
	p.OnInsert(Entry{Doc: docID("b"), Size: 1}, resident)
	p.OnEvict(docID("c"), resident)
	p.Flush()
	if got := p.Messages(); got != 1 {
		t.Fatalf("Messages = %d, want 1", got)
	}
	if got := p.EntriesShipped(); got != 3 {
		t.Fatalf("EntriesShipped = %d, want 3 net deltas (not the %d-doc directory)", got, resident)
	}
	if !x.Has(1, docID("a")) || !x.Has(1, docID("b")) {
		t.Fatal("batched flush did not apply adds")
	}

	// Same sequence under Periodic ships the whole resident directory.
	q, err := newPublisher(New(SelectFirst), 1, Periodic, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.OnInsert(Entry{Doc: docID("a"), Size: 1}, resident)
	q.OnInsert(Entry{Doc: docID("b"), Size: 1}, resident)
	q.OnEvict(docID("c"), resident)
	q.Flush()
	if got := q.EntriesShipped(); got != resident {
		t.Fatalf("Periodic EntriesShipped = %d, want resident %d", got, resident)
	}
}

// TestBatchedCoalescesChurn checks last-write-wins coalescing: a document
// cached and evicted between flushes ships as a single removal, and an
// evicted-then-recached document as a single add.
func TestBatchedCoalescesChurn(t *testing.T) {
	x := New(SelectFirst)
	p, err := newPublisher(x, 2, Batched, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.OnInsert(Entry{Doc: docID("churn"), Size: 1}, 10)
	p.OnEvict(docID("churn"), 10)
	p.OnInsert(Entry{Doc: docID("back"), Size: 1}, 10)
	p.OnEvict(docID("back"), 10)
	p.OnInsert(Entry{Doc: docID("back"), Size: 2}, 10)
	p.Flush()
	// churn → one removal; back → one add: 2 entries on the wire.
	if got := p.EntriesShipped(); got != 2 {
		t.Fatalf("EntriesShipped = %d, want 2 coalesced deltas", got)
	}
	if x.Has(2, docID("churn")) {
		t.Fatal("evicted doc survived coalescing")
	}
	e, ok := x.Get(2, docID("back"))
	if !ok || e.Size != 2 {
		t.Fatalf("recached doc lost or stale: ok=%v size=%d", ok, e.Size)
	}
}

// TestPeriodicThresholdZeroResident pins the max(resident, 1) guard: a
// publisher whose cache just went empty (resident == 0) must still be able
// to flush — and account the flush — without dividing by zero or stalling.
func TestPeriodicThresholdZeroResident(t *testing.T) {
	for _, mode := range []Mode{Periodic, Batched} {
		x := New(SelectFirst)
		p, err := newPublisher(x, 1, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		x.Add(Entry{Client: 1, Doc: docID("last")})
		// The last resident doc evicts: resident drops to 0 and the
		// threshold (1 × max(0,1) = 1 change) trips immediately.
		p.OnEvict(docID("last"), 0)
		if p.Flushes() != 1 {
			t.Fatalf("%s: empty-cache eviction did not flush (flushes=%d)", mode, p.Flushes())
		}
		if x.Has(1, docID("last")) {
			t.Fatalf("%s: eviction not applied", mode)
		}
		if p.Messages() != 1 || p.EntriesShipped() != 1 {
			t.Fatalf("%s: msgs=%d entries=%d, want 1/1", mode, p.Messages(), p.EntriesShipped())
		}
	}
}

// TestEvictionOnlyBatch checks a flush carrying only removals: the batch is
// counted, applied, and ships exactly the removal count.
func TestEvictionOnlyBatch(t *testing.T) {
	x := New(SelectFirst)
	p, err := newPublisher(x, 4, Batched, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"e1", "e2", "e3"} {
		x.Add(Entry{Client: 4, Doc: docID(u), Size: 1})
	}
	for _, u := range []string{"e1", "e2", "e3"} {
		p.OnEvict(docID(u), 20)
	}
	p.Flush()
	if p.Messages() != 1 || p.EntriesShipped() != 3 {
		t.Fatalf("eviction-only batch: msgs=%d entries=%d, want 1/3", p.Messages(), p.EntriesShipped())
	}
	for _, u := range []string{"e1", "e2", "e3"} {
		if x.Has(4, docID(u)) {
			t.Fatalf("%s not removed by eviction-only batch", u)
		}
	}
}

func TestImmediateMessageAccounting(t *testing.T) {
	x := New(SelectFirst)
	p, err := newPublisher(x, 1, Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.OnInsert(Entry{Doc: docID("m"), Size: 1}, 1)
	p.OnEvict(docID("m"), 0)
	if p.Messages() != 2 || p.EntriesShipped() != 2 {
		t.Fatalf("immediate: msgs=%d entries=%d, want 2/2 (one entry per op)", p.Messages(), p.EntriesShipped())
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Immediate, Periodic, Batched} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus name")
	}
	if _, err := newPublisher(New(SelectFirst), 1, Batched, 0); err == nil {
		t.Error("Batched publisher accepted zero threshold")
	}
}
