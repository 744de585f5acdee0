package obs

import (
	"sync"
	"testing"
)

// TestConcurrentIncrements hammers one counter, one vec, one gauge, one
// float counter, and one summary from many goroutines and checks the exact
// totals — the -race proof that hot-path increments are safe.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	fc := r.FloatCounter("f_total", "test float counter")
	vec := r.CounterVec("v_total", "test vec", "who")
	sum := r.Summary("s_seconds", "test summary")

	const (
		goroutines = 32
		perG       = 2_000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			child := vec.WithInt(id % 4)
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				fc.Add(0.5)
				child.Inc()
				vec.With("shared").Inc()
				sum.Observe(0.001)
			}
		}(i)
	}
	wg.Wait()

	const want = goroutines * perG
	if got := c.Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got := fc.Value(); got != want/2 {
		t.Errorf("float counter = %g, want %d", got, want/2)
	}
	if got := vec.Sum(); got != 2*want {
		t.Errorf("vec sum = %d, want %d", got, 2*want)
	}
	if got := r.VecValue("v_total", "shared"); got != want {
		t.Errorf("vec[shared] = %d, want %d", got, want)
	}
	if got := r.VecValue("v_total", "2"); got != perG*goroutines/4 {
		t.Errorf("vec[2] = %d, want %d", got, perG*goroutines/4)
	}
	if got := sum.Count(); got != want {
		t.Errorf("summary count = %d, want %d", got, want)
	}
}

func TestGetOrCreateIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("Counter not idempotent")
	}
	v1 := r.CounterVec("y_total", "", "peer")
	v2 := r.CounterVec("y_total", "", "peer")
	if v1 != v2 {
		t.Fatal("CounterVec not idempotent")
	}
	if v1.WithInt(7) != v1.With("7") {
		t.Fatal("WithInt and With disagree on the same label value")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9abc", "a-b", "a b", "a{}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for name %q", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	for _, good := range []string{"a", "_x", "ns:metric_total", "A9_"} {
		r.Counter(good, "")
	}
}

func TestAccessorsOnMissingAndWrongKinds(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "").Set(3)
	r.GaugeFunc("gf", "", func() float64 { return 1.5 })
	r.LabeledGaugeFunc("lg", "", "state", "open", func() float64 { return 2 })
	r.LabeledGaugeFunc("lg", "", "state", "closed", func() float64 { return 5 })
	r.CounterFunc("cf_total", "", func() int64 { return 42 })

	if got := r.CounterValue("missing"); got != 0 {
		t.Errorf("CounterValue(missing) = %d", got)
	}
	if got := r.CounterValue("g"); got != 0 {
		t.Errorf("CounterValue(gauge) = %d, want 0", got)
	}
	if got := r.CounterValue("cf_total"); got != 42 {
		t.Errorf("CounterValue(cf_total) = %d, want 42", got)
	}
	if got := r.GaugeValue("g"); got != 3 {
		t.Errorf("GaugeValue(g) = %g, want 3", got)
	}
	if got := r.GaugeValue("gf"); got != 1.5 {
		t.Errorf("GaugeValue(gf) = %g, want 1.5", got)
	}
	if got := r.GaugeValue("lg"); got != 7 {
		t.Errorf("GaugeValue(lg) = %g, want 7 (sum of children)", got)
	}
	if got := r.VecValue("g", "x"); got != 0 {
		t.Errorf("VecValue on gauge = %d, want 0", got)
	}
}

// TestRestoreCountersClosedFamily: a family declared with its label values
// restores only those children; an open family restores every child a
// snapshot names.
func TestRestoreCountersClosedFamily(t *testing.T) {
	r := NewRegistry()
	closed := r.CounterVec("closed_total", "", "outcome", "hit", "miss")
	open := r.CounterVec("open_total", "", "client")
	r.RestoreCounters(CounterSnapshot{Vecs: map[string]map[string]int64{
		"closed_total": {"hit": 2, "retired": 3},
		"open_total":   {"7": 4},
	}})
	if got := closed.With("hit").Value(); got != 2 {
		t.Errorf("closed hit = %d, want 2", got)
	}
	if closed.has("retired") {
		t.Error("closed family restored a child it was not declared with")
	}
	if got := closed.Sum(); got != 2 {
		t.Errorf("closed sum = %d, want 2", got)
	}
	if got := open.WithInt(7).Value(); got != 4 {
		t.Errorf("open client 7 = %d, want 4", got)
	}
}
