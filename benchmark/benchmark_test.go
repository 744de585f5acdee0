package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {100, 0.9}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles(pi digits) = %v, %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestSliceRatesDropTheOverhang(t *testing.T) {
	sec := int64(time.Second)
	ends := []int64{0, sec / 2, sec, sec + 1, 2*sec + 5} // the last lands past the phase
	got := sliceRates(ends, []float64{1, 1, 1, 1, 1}, 2*sec, sec)
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("sliceRates = %v, want [2 2]", got)
	}
}

// fakeClock advances only when told to: sleeping jumps to the due time, and
// the fake operation below adds its service time.
type fakeClock struct{ t int64 }

func (f *fakeClock) now() int64 { return f.t }
func (f *fakeClock) sleepUntil(ns int64) {
	if ns > f.t {
		f.t = ns
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := int64(time.Millisecond)
	sched := []arrival{{dueNS: 0}, {dueNS: 10 * ms}, {dueNS: 20 * ms}, {dueNS: 30 * ms}, {dueNS: 200 * ms}}
	clk := &fakeClock{}
	res := openLoop(sched, 1, clk, func(int, request) opResult {
		clk.t += 25 * ms // each request takes 25 ms: the first four queue up
		return opResult{ok: true}
	})
	wantSend := []int64{0, 25, 50, 75, 200}
	wantLatency := []int64{25, 40, 55, 70, 25}
	for i, r := range res {
		if r.sendNS != wantSend[i]*ms || r.endNS-r.dueNS != wantLatency[i]*ms {
			t.Errorf("request %d: sent at %d ms, latency %d ms; want %d, %d",
				i, r.sendNS/ms, (r.endNS-r.dueNS)/ms, wantSend[i], wantLatency[i])
		}
	}
	sum := summarizeOpen(res)
	if sum.samples != 5 || sum.p50 != 40 {
		t.Errorf("summary %+v: want 5 samples, p50 40 ms", sum)
	}
	if want := float64(0+15+30+45+0) / 5; sum.genLagMS != want {
		t.Errorf("gen lag %v ms, want %v", sum.genLagMS, want)
	}
	if sum.backlogMS != 0 {
		t.Errorf("backlog %v ms: the last request went out on time", sum.backlogMS)
	}
	// Cut the schedule while the queue is still there: that is a backlog.
	clk.t = 0
	if sum := summarizeOpen(openLoop(sched[:4], 1, clk, func(int, request) opResult {
		clk.t += 25 * ms
		return opResult{}
	})); sum.backlogMS != 45 || sum.samples != 0 {
		t.Errorf("backlog %v ms with %d samples, want 45 and 0 (failed requests carry no latency)", sum.backlogMS, sum.samples)
	}
}

func TestVerificationTimeStaysOutOfLatency(t *testing.T) {
	clk := &fakeClock{}
	res := openLoop([]arrival{{dueNS: 0}}, 1, clk, func(int, request) opResult {
		clk.t += 7000 // 4000 ns of response, then 3000 ns of checking it
		return opResult{ok: true, checkNS: 3000}
	})
	if res[0].endNS != 4000 {
		t.Errorf("end at %d ns, want 4000", res[0].endNS)
	}
}

func TestSpanSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: spanClientFetch, Start: 0, End: 100, Parent: -1, key: "u"},
		{Name: spanOutPeer, Start: 10, End: 40, Parent: -1, key: "u"},
		{Name: spanOutOrigin, Start: 30, End: 70, Parent: -1, key: "u"}, // hedged: overlaps the peer trip
		{Name: spanOriginServe, Start: 35, End: 60, Parent: -1, key: "u"},
		{Name: spanOutOrigin, Start: 500, End: 520, Parent: -1, key: "u"}, // revalidation: nobody is waiting
		// Coalesced duplicates: two fetches of one URL, one outbound trip.
		{Name: spanClientFetch, Start: 200, End: 300, Parent: -1, key: "v"},
		{Name: spanClientFetch, Start: 210, End: 310, Parent: -1, key: "v"},
		{Name: spanOutOrigin, Start: 220, End: 290, Parent: -1, key: "v"},
	}
	linkSpans(spans)
	for i, want := range []int{-1, 0, 0, 2, -1, -1, -1, 5} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	if spans[3].Req != 0 || spans[7].Req != 5 {
		t.Errorf("request ids: origin.serve %d (want 0), coalesced trip %d (want 5)", spans[3].Req, spans[7].Req)
	}
	lt := selfTimes(spans)
	// client.fetch: (100 − union[10,70] = 40) + (100 − 70 = 30) + (100 − 0).
	if got := lt[spanClientFetch]; got.count != 3 || got.busyNS != 300 || got.selfNS != 170 {
		t.Errorf("client.fetch %+v, want count 3 busy 300 self 170", got)
	}
	// proxy.out.origin: (40 − 25 served by the origin) + 20 + 70.
	if got := lt[spanOutOrigin]; got.count != 3 || got.selfNS != 105 || got.unparented != 1 {
		t.Errorf("proxy.out.origin %+v, want count 3 self 105 unparented 1", got)
	}
}

func TestSeedFixesTheRequestSequence(t *testing.T) {
	draw := func(seed uint64) []request {
		s := newRequestStream(seed, 0, 1000, 1.2, 5)
		var out []request
		for i := 0; i < 200; i++ {
			out = append(out, s.next())
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 drew %v then %v at position %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
		if mod := (i+1)%5 == 0; mod != (a[i].modDoc >= 0) {
			t.Errorf("position %d: modification %d", i, a[i].modDoc)
		}
	}
	if same {
		t.Error("seeds 1 and 2 drew the same sequence")
	}
	s1 := poissonSchedule(1, 500, time.Second, newRequestStream(1, 50, 1000, 1.2, 0))
	s2 := poissonSchedule(1, 500, time.Second, newRequestStream(1, 50, 1000, 1.2, 0))
	if len(s1) != len(s2) || len(s1) < 400 || len(s1) > 600 {
		t.Fatalf("schedules of %d and %d arrivals at 500/s over 1 s", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("arrival %d differs: %v, %v", i, s1[i], s2[i])
		}
	}
}

func TestJudgeAgainstBound(t *testing.T) {
	steady := func(m float64) spread { return spread{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	up := metricDef{Name: "fetch_rps", Better: "higher", Bound: 0.10}
	down := metricDef{Name: "fetch_p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		base, cand spread
		def        metricDef
		want       verdict
	}{
		{steady(100), steady(95), up, verdictOK},
		{steady(100), steady(85), up, verdictRegressed},
		{steady(100), steady(150), up, verdictOK},
		{steady(10), steady(10.5), down, verdictOK},
		{steady(10), steady(12), down, verdictRegressed},
		{steady(100), spread{Median: 85, Q1: 70, Q3: 100}, up, verdictUnresolved},
	} {
		if got := judge(c.base, c.cand, c.def); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.base.Median, c.cand.Median, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesTheCode holds BENCHMARK.json and the tables in
// metrics.go and workloads.go together, and checks the file's own rules.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	bf, err := readBenchmarkFile("../" + benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, file, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
		}
		for i, f := range file {
			c := code[i]
			if f.Name != c.Name || f.Unit != c.Unit || f.Better != c.Better {
				t.Errorf("%s[%d]: file %+v, code %+v", kind, i, f, c)
			}
			if !name.MatchString(f.Name) || !unit.MatchString(f.Unit) || seen[f.Name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, f.Name, f.Unit)
			}
			seen[f.Name] = true
			if bounded != (f.Bound > 0) || f.Bound > 0.25 {
				t.Errorf("%s %q: bound %v", kind, f.Name, f.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(ws))
	}
	for i, w := range bf.Workloads {
		if w.Name != ws[i].name() || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (code %q), why of %d characters", i, w.Name, ws[i].name(), len(w.Why))
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

// TestSmoke drives every workload end to end, untraced and traced, at
// populations and windows small enough for the unit-test budget.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up loopback clusters")
	}
	for _, w := range smokeWorkloads() {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 1, seconds: 0.5, traced: traced, tmpRoot: t.TempDir(), setupRounds: 1, probeFor: 10 * time.Millisecond, smoke: true}
			res, err := w.run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name(), traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v", w.name(), traced, res.Attempted, res.Failed, res.Correct)
			}
			if _, err := res.contractLine(); err != nil {
				t.Errorf("%s traced=%v: %v", w.name(), traced, err)
			}
			if traced {
				continue
			}
			for _, d := range endToEnd {
				if d.Name != "peak_rss_mib" && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: %s = %v, want a positive number", w.name(), d.Name, res.Metrics[d.Name].Value)
				}
			}
		}
	}
}
