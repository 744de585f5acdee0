package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"baps/internal/core"
	"baps/internal/synth"
	"baps/internal/trace"
)

// testTrace builds a small synthetic trace with healthy sharing.
func testTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	p := synth.Profile{
		Name: "sim-test", Clients: 12, Requests: 8_000, DurationSec: 3600,
		SharedDocs: 1_500, PrivateDocs: 80,
		SharedFraction: 0.7, ZipfAlpha: 0.8, PrivateZipfAlpha: 0.8,
		RecencyFraction: 0.2, RecencyWindow: 64, RecencyGeomP: 0.3,
		MeanDocKB: 8, SizeSigma: 1.3, MinDocBytes: 128, MaxDocBytes: 1 << 20,
		ModifyRate: 0.01, ClientZipfAlpha: 0.3, Seed: seed,
	}
	tr, err := synth.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

func TestDefaultConfigValid(t *testing.T) {
	for _, org := range core.Organizations() {
		c := DefaultConfig(org)
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", org, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	c := DefaultConfig(core.BrowsersAware)
	c.RelativeSize = 0
	if err := c.Validate(); err == nil {
		t.Error("RelativeSize=0 accepted without override")
	}
	c.ProxyCapOverride = 1000
	if err := c.Validate(); err != nil {
		t.Errorf("override should satisfy validation: %v", err)
	}
	c = DefaultConfig(core.BrowsersAware)
	c.MinBrowserDivisor = 0
	if err := c.Validate(); err == nil {
		t.Error("MinBrowserDivisor=0 accepted")
	}
	c = DefaultConfig(core.BrowsersAware)
	c.Latency.MemBlockSec = 0
	if err := c.Validate(); err == nil {
		t.Error("invalid latency model accepted")
	}
}

func TestSizingString(t *testing.T) {
	if SizingMinimum.String() != "minimum" || SizingAverage.String() != "average" {
		t.Error("Sizing strings wrong")
	}
}

func TestRunAllOrganizations(t *testing.T) {
	tr := testTrace(t, 1)
	for _, org := range core.Organizations() {
		org := org
		t.Run(org.String(), func(t *testing.T) {
			res, err := Run(tr, nil, DefaultConfig(org))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Requests != int64(len(tr.Requests)) {
				t.Fatalf("Requests = %d", res.Requests)
			}
			if res.HitRatio() <= 0 {
				t.Fatalf("hit ratio %g not positive", res.HitRatio())
			}
			// Organizations without a layer never hit there.
			if org == core.ProxyCacheOnly && res.LocalHits+res.RemoteHits != 0 {
				t.Error("proxy-only produced browser hits")
			}
			if org == core.LocalBrowserCacheOnly && res.ProxyHits+res.RemoteHits != 0 {
				t.Error("local-only produced proxy/remote hits")
			}
			if org == core.GlobalBrowsersCacheOnly && res.ProxyHits != 0 {
				t.Error("global-browsers produced proxy hits")
			}
			if org == core.ProxyAndLocalBrowser && res.RemoteHits != 0 {
				t.Error("proxy-and-local produced remote hits")
			}
			if org != core.BrowsersAware && org != core.GlobalBrowsersCacheOnly && res.RemoteConnections != 0 {
				t.Error("remote transfers without an index")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t, 2)
	a, err := Run(tr, nil, DefaultConfig(core.BrowsersAware))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, nil, DefaultConfig(core.BrowsersAware))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same trace+config, different results:\n%+v\n%+v", a, b)
	}
}

// TestBAPSDominatesPaperShape is the headline golden-shape test: on a
// sharing-rich trace the browsers-aware proxy beats proxy-and-local-browser,
// which beats proxy-cache-only; local-browser-cache-only is worst (its
// minimum-sized private caches are tiny).
func TestBAPSDominatesPaperShape(t *testing.T) {
	tr := testTrace(t, 3)
	base := DefaultConfig(core.BrowsersAware)
	base.RelativeSize = 0.05
	base.Sizing = SizingMinimum
	sw, err := Sweep(tr, core.Organizations(), []float64{0.05}, base)
	if err != nil {
		t.Fatal(err)
	}
	hr := func(o core.Organization) float64 { return sw.ByOrg[o][0].HitRatio() }

	if hr(core.BrowsersAware) <= hr(core.ProxyAndLocalBrowser) {
		t.Errorf("BAPS %.4f <= P+LB %.4f", hr(core.BrowsersAware), hr(core.ProxyAndLocalBrowser))
	}
	if hr(core.ProxyAndLocalBrowser) < hr(core.ProxyCacheOnly) {
		t.Errorf("P+LB %.4f < proxy-only %.4f", hr(core.ProxyAndLocalBrowser), hr(core.ProxyCacheOnly))
	}
	if hr(core.LocalBrowserCacheOnly) >= hr(core.ProxyAndLocalBrowser) {
		t.Errorf("local-only %.4f >= P+LB %.4f", hr(core.LocalBrowserCacheOnly), hr(core.ProxyAndLocalBrowser))
	}
	if sw.ByOrg[core.BrowsersAware][0].RemoteHits == 0 {
		t.Error("BAPS produced no remote-browser hits on a sharing-rich trace")
	}
}

func TestSweepSizesImproveHitRatio(t *testing.T) {
	tr := testTrace(t, 4)
	base := DefaultConfig(core.BrowsersAware)
	sw, err := Sweep(tr, []core.Organization{core.BrowsersAware}, PaperSizes, base)
	if err != nil {
		t.Fatal(err)
	}
	rs := sw.ByOrg[core.BrowsersAware]
	first, last := rs[0].HitRatio(), rs[len(rs)-1].HitRatio()
	if last <= first {
		t.Errorf("hit ratio did not grow with cache size: %.4f → %.4f", first, last)
	}
	for i, r := range rs {
		if r.RelativeSize != PaperSizes[i] {
			t.Errorf("result %d has size %g, want %g", i, r.RelativeSize, PaperSizes[i])
		}
	}
}

func TestScalingIncrementsGrow(t *testing.T) {
	tr := testTrace(t, 5)
	base := DefaultConfig(core.BrowsersAware)
	base.RelativeSize = 0.10
	sc, err := Scaling(tr, PaperClientFractions, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := len(PaperClientFractions)
	if sc.HRIncrementPct[0] > sc.HRIncrementPct[n-1] {
		t.Errorf("HR increment fell with more clients: %v", sc.HRIncrementPct)
	}
	for i, inc := range sc.HRIncrementPct {
		if inc < -1 { // tiny noise tolerated; BAPS must not lose
			t.Errorf("fraction %g: negative increment %.2f%%", sc.Fractions[i], inc)
		}
	}
	// The fixed proxy capacity must hold across fractions.
	for i := range sc.BAPS {
		if sc.BAPS[i].ProxyCap != sc.BAPS[0].ProxyCap {
			t.Error("proxy capacity drifted across client fractions")
		}
	}
}

func TestMemoryStudyShape(t *testing.T) {
	tr := testTrace(t, 6)
	// The §4.2 setting: minimum browser sizing continued from Figure 2,
	// with browser caches memory-resident (the §1 "browser cache in
	// memory" technique; the paper itself notes its browser-memory
	// setting is deliberately un-favorable and real deployments are
	// memory-heavy).
	base := DefaultConfig(core.BrowsersAware)
	base.Sizing = SizingMinimum
	base.BrowserMemFraction = 1.0
	ms, err := MemoryStudy(tr, 0.10, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	// Matched byte hit ratios: the bisection must land close.
	if d := ms.BAPS.ByteHitRatio() - ms.PALB.ByteHitRatio(); d < -0.02 || d > 0.02 {
		t.Fatalf("byte hit ratios not matched: BAPS %.4f vs PALB %.4f",
			ms.BAPS.ByteHitRatio(), ms.PALB.ByteHitRatio())
	}
	if ms.MatchedPALBSize <= ms.BAPS.RelativeSize {
		t.Errorf("PALB matched at %.3f, not larger than BAPS size %.3f",
			ms.MatchedPALBSize, ms.BAPS.RelativeSize)
	}
	// The §4.2 claim: at comparable byte hit ratios, BAPS serves more
	// bytes from memory than the bigger conventional setup.
	if ms.BAPS.MemoryByteHitRatio() <= ms.PALB.MemoryByteHitRatio() {
		t.Errorf("BAPS memory BHR %.4f <= PALB %.4f",
			ms.BAPS.MemoryByteHitRatio(), ms.PALB.MemoryByteHitRatio())
	}
}

func TestMemoryStudyPinnedSize(t *testing.T) {
	tr := testTrace(t, 6)
	ms, err := MemoryStudy(tr, 0.10, 0.20, DefaultConfig(core.BrowsersAware))
	if err != nil {
		t.Fatal(err)
	}
	if ms.MatchedPALBSize != 0.20 {
		t.Errorf("pinned size ignored: %g", ms.MatchedPALBSize)
	}
	if ms.PALB.RelativeSize != 0.20 || ms.BAPS.RelativeSize != 0.10 {
		t.Errorf("sizes wrong: %g/%g", ms.BAPS.RelativeSize, ms.PALB.RelativeSize)
	}
}

func TestOverheadSmall(t *testing.T) {
	tr := testTrace(t, 7)
	res, err := Run(tr, nil, DefaultConfig(core.BrowsersAware))
	if err != nil {
		t.Fatal(err)
	}
	// §5: remote communication is a small share of total service time
	// (paper: <1.2 %; allow slack for the synthetic workload), and
	// contention is a small share of communication time.
	if f := res.RemoteCommFraction(); f > 0.10 {
		t.Errorf("remote comm fraction %.4f implausibly high", f)
	}
	if cs := res.ContentionShare(); cs > 0.25 {
		t.Errorf("contention share %.4f implausibly high", cs)
	}
}

func TestMinimumSizingUsesDivisor(t *testing.T) {
	tr := testTrace(t, 8)
	st := trace.Compute(tr)
	c := DefaultConfig(core.BrowsersAware)
	c.Sizing = SizingMinimum
	c.RelativeSize = 0.10
	cc := CoreConfig(&st, c)
	wantProxy := int64(0.10 * float64(st.InfiniteCacheBytes))
	if cc.ProxyCapacity != wantProxy {
		t.Errorf("proxy cap %d, want %d", cc.ProxyCapacity, wantProxy)
	}
	wantBrowser := int64(float64(wantProxy) / float64(st.NumClients))
	for i, b := range cc.BrowserCapacity {
		if b != wantBrowser {
			t.Errorf("browser %d cap %d, want %d", i, b, wantBrowser)
		}
	}
}

func TestAverageSizingUniform(t *testing.T) {
	tr := testTrace(t, 9)
	st := trace.Compute(tr)
	c := DefaultConfig(core.BrowsersAware)
	c.Sizing = SizingAverage
	c.RelativeSize = 0.20
	cc := CoreConfig(&st, c)
	want := int64(0.20 * float64(st.AvgClientInfiniteBytes()))
	for i, b := range cc.BrowserCapacity {
		if b != want {
			t.Errorf("browser %d cap %d, want %d", i, b, want)
		}
	}
}

func TestPerClientSizing(t *testing.T) {
	tr := testTrace(t, 9)
	st := trace.Compute(tr)
	c := DefaultConfig(core.BrowsersAware)
	c.Sizing = SizingPerClient
	c.RelativeSize = 0.20
	cc := CoreConfig(&st, c)
	for i, b := range cc.BrowserCapacity {
		want := int64(0.20 * float64(st.ClientInfiniteBytes[i]))
		if b != want {
			t.Errorf("browser %d cap %d, want %d", i, b, want)
		}
	}
}

func TestProxyCapOverride(t *testing.T) {
	tr := testTrace(t, 10)
	st := trace.Compute(tr)
	c := DefaultConfig(core.BrowsersAware)
	c.ProxyCapOverride = 123_456
	cc := CoreConfig(&st, c)
	if cc.ProxyCapacity != 123_456 {
		t.Errorf("override ignored: %d", cc.ProxyCapacity)
	}
}

// TestQuickConservation runs random small traces through random
// organizations and checks every Result invariant.
func TestQuickConservation(t *testing.T) {
	orgs := core.Organizations()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := synth.Profile{
			Name: "q", Clients: rng.Intn(6) + 2, Requests: 1_500, DurationSec: 600,
			SharedDocs: 300, PrivateDocs: 40,
			SharedFraction: 0.6, ZipfAlpha: 0.8, PrivateZipfAlpha: 0.8,
			RecencyFraction: 0.2, RecencyWindow: 32, RecencyGeomP: 0.3,
			MeanDocKB: 6, SizeSigma: 1.2, MinDocBytes: 64, MaxDocBytes: 1 << 19,
			ModifyRate: 0.05, ClientZipfAlpha: 0.3, Seed: seed,
		}
		tr, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(orgs[rng.Intn(len(orgs))])
		cfg.RelativeSize = []float64{0.005, 0.05, 0.5}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			cfg.Sizing = SizingMinimum
		}
		if rng.Intn(2) == 0 {
			cfg.ForwardMode = core.DirectForward
		}
		res, err := Run(tr, nil, cfg)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if err := res.Check(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
