package index

import "testing"

func TestAppendOrderedFiltersExpired(t *testing.T) {
	x := New(SelectMostRecent)
	x.Add(Entry{Client: 1, Doc: docID("u"), Size: 10, Stamp: 0, Expire: 100})
	x.Add(Entry{Client: 2, Doc: docID("u"), Size: 10, Stamp: 5, Expire: 50})

	// Before any expiry: both offered, client 2 preferred (newer stamp).
	got := x.AppendOrdered(nil, docID("u"), 0, 10)
	if len(got) != 2 || got[0].Client != 2 {
		t.Fatalf("AppendOrdered(10) = %+v", got)
	}
	// After client 2's TTL: only client 1, appended after what buf held.
	buf := []Entry{{Client: 99}}
	got = x.AppendOrdered(buf, docID("u"), 0, 60)
	if len(got) != 2 || got[0].Client != 99 || got[1].Client != 1 {
		t.Fatalf("AppendOrdered(60) = %+v", got)
	}
	// After both: none.
	if got = x.AppendOrdered(nil, docID("u"), 0, 100); len(got) != 0 {
		t.Fatalf("AppendOrdered(100) = %+v", got)
	}
	// now == 0 disables filtering.
	if got = x.AppendOrdered(nil, docID("u"), 0, 0); len(got) != 2 {
		t.Fatalf("Ordered = %+v", got)
	}
}

func TestAppendOrderedZeroExpireNeverFiltered(t *testing.T) {
	x := New(SelectFirst)
	x.Add(Entry{Client: 1, Doc: docID("u"), Size: 10}) // Expire == 0: immortal
	if got := x.AppendOrdered(nil, docID("u"), 0, 1e12); len(got) != 1 {
		t.Fatalf("immortal entry filtered: %+v", got)
	}
}

func TestPruneExpired(t *testing.T) {
	x := New(SelectFirst)
	x.Add(Entry{Client: 1, Doc: docID("a"), Expire: 10})
	x.Add(Entry{Client: 1, Doc: docID("b"), Expire: 100})
	x.Add(Entry{Client: 2, Doc: docID("a"), Expire: 5})
	x.Add(Entry{Client: 2, Doc: docID("c")}) // immortal

	if n := x.PruneExpired(50); n != 2 {
		t.Fatalf("pruned %d, want 2", n)
	}
	if x.Has(1, docID("a")) || x.Has(2, docID("a")) {
		t.Fatal("expired entries survived")
	}
	if !x.Has(1, docID("b")) || !x.Has(2, docID("c")) {
		t.Fatal("live entries pruned")
	}
	if x.URLCount() != 2 {
		t.Fatalf("URLCount = %d", x.URLCount())
	}
	if n := x.PruneExpired(50); n != 0 {
		t.Fatalf("second prune removed %d", n)
	}
}
