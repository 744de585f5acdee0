package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("fetch")
	if s != nil {
		t.Fatal("nil tracer should return nil span")
	}
	// All span methods must be safe on nil.
	s.SetClient(1)
	s.SetURL("u")
	s.Event("e", "")
	s.Finish("ok", nil)
	if tr.Total() != 0 {
		t.Fatal("nil tracer Total != 0")
	}
	if tr.Last(5) != nil {
		t.Fatal("nil tracer Last != nil")
	}
}

func TestRingWrapAndLast(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		s := tr.StartSpan("op")
		s.SetClient(i)
		s.Finish("ok", nil)
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recs := tr.Last(10)
	if len(recs) != 4 {
		t.Fatalf("Last returned %d records, want 4 (ring depth)", len(recs))
	}
	for i, rec := range recs {
		if want := 9 - i; rec.Client != want {
			t.Errorf("recs[%d].Client = %d, want %d (newest first)", i, rec.Client, want)
		}
	}
	if got := tr.Last(2); len(got) != 2 || got[0].Client != 9 {
		t.Errorf("Last(2) = %+v", got)
	}
}

func TestSpanLifecycleAndLateEvents(t *testing.T) {
	tr := NewTracer(8)
	s := tr.StartSpan("fetch")
	s.SetClient(3)
	s.SetURL("http://o/x")
	s.Event("index", "2 holders")
	s.Finish("peer_fetch_forward", nil)
	// A hedged loser annotating after Finish must not mutate the record.
	s.Event("late", "loser")
	s.Finish("origin", errors.New("double finish"))

	recs := tr.Last(1)
	if len(recs) != 1 {
		t.Fatal("no record")
	}
	rec := recs[0]
	if rec.Client != 3 || rec.URL != "http://o/x" || rec.Outcome != "peer_fetch_forward" || rec.Error != "" {
		t.Errorf("record = %+v", rec)
	}
	if len(rec.Events) != 1 || rec.Events[0].Name != "index" {
		t.Errorf("events = %+v", rec.Events)
	}
	if tr.Total() != 1 {
		t.Errorf("Total = %d after double finish, want 1", tr.Total())
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.StartSpan("op")
				s.SetClient(id)
				s.Event("e", "")
				s.Finish("ok", nil)
				// Late annotation racing the next span.
				s.Event("late", "")
			}
		}(i)
	}
	wg.Wait()
	if got := tr.Total(); got != 16*50 {
		t.Fatalf("Total = %d, want %d", got, 16*50)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		s := tr.StartSpan("op")
		s.SetClient(i)
		s.Finish("ok", nil)
	}
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Client != 4 {
		t.Errorf("got %d records, first client %d; want 3 records newest first", len(recs), recs[0].Client)
	}

	bad, err := srv.Client().Get(srv.URL + "?n=zebra")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Errorf("bad n status = %d, want 400", bad.StatusCode)
	}
}

func TestContextPlumbing(t *testing.T) {
	tr := NewTracer(4)
	s := tr.StartSpan("op")
	ctx := WithSpan(context.Background(), s)
	if got := SpanFrom(ctx); got != s {
		t.Fatal("SpanFrom did not return the carried span")
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatal("SpanFrom on empty context should be nil")
	}
	if ctx2 := WithSpan(context.Background(), nil); SpanFrom(ctx2) != nil {
		t.Fatal("WithSpan(nil) should not store a span")
	}
}
