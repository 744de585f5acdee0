package sim

import (
	"reflect"
	"testing"

	"baps/internal/cache"
	"baps/internal/core"
	"baps/internal/index"
	"baps/internal/obs"
	"baps/internal/trace"
)

// TestRunnerReuseMatchesFreshRuns drives one pooled Runner through a sequence
// of configurations that alternately exercise the in-place System.Reset path
// (different capacities, thresholds or organization) and the rebuild path
// (changed policy or index mode), asserting every pooled run is
// bit-identical to a fresh package-level Run. Guards the object-pooling
// fast path the sweep drivers depend on.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	tr := testTrace(t, 21)
	st := trace.Compute(tr)

	mk := func(mut func(*Config)) Config {
		c := DefaultConfig(core.BrowsersAware)
		c.RelativeSize = 0.05
		mut(&c)
		return c
	}
	configs := []Config{
		mk(func(c *Config) {}),
		// Same shape: capacity change → Reset path.
		mk(func(c *Config) { c.RelativeSize = 0.10 }),
		// Different organization → Reset path.
		mk(func(c *Config) { c.Organization = core.ProxyAndLocalBrowser }),
		// Shape change: browser policy → rebuild.
		mk(func(c *Config) { c.BrowserPolicy = cache.GDSF }),
		// Shape change: periodic index → rebuild, with threshold state.
		mk(func(c *Config) {
			c.IndexMode = index.Periodic
			c.IndexThreshold = 0.05
		}),
		// Back to the first shape: Reset must clear periodic residue.
		mk(func(c *Config) {}),
		// Warm-up and TTL flags flip freely within one shape.
		mk(func(c *Config) { c.WarmupFraction = 0.25 }),
		mk(func(c *Config) { c.DocTTLSec = 600 }),
	}

	var rn Runner
	for i, cfg := range configs {
		fresh, err := Run(tr, &st, cfg)
		if err != nil {
			t.Fatalf("case %d: fresh run: %v", i, err)
		}
		pooled, err := rn.Run(tr, &st, cfg)
		if err != nil {
			t.Fatalf("case %d: pooled run: %v", i, err)
		}
		compareResults(t, i, fresh, pooled)
	}
}

// TestRunnerResetAcrossOrganizations checks the pooled System re-arms
// exactly across organizations: for every ordered pair (A, B), a Runner that
// replays A (at another size) and then B returns a Result deep-equal to a
// fresh Runner's B, on the same System. Both runs have the background
// pipeline on, which only some organizations run. A structural change still
// builds a new System, and a re-armed System exposes no layer its
// organization lacks.
func TestRunnerResetAcrossOrganizations(t *testing.T) {
	tr := testTrace(t, 23)
	st := trace.Compute(tr)
	for _, a := range core.Organizations() {
		for _, b := range core.Organizations() {
			first := DefaultConfig(a)
			first.RelativeSize = 0.10
			first.RevalidateAfterSec = 300
			second := DefaultConfig(b)
			second.RelativeSize = 0.05
			second.RevalidateAfterSec = 300

			var rn Runner
			if _, err := rn.Run(tr, &st, first); err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			sys := rn.sys
			pooled, err := rn.Run(tr, &st, second)
			if err != nil {
				t.Fatalf("%v then %v: %v", a, b, err)
			}
			fresh, err := Run(tr, &st, second)
			if err != nil {
				t.Fatalf("%v: %v", b, err)
			}
			if !reflect.DeepEqual(pooled, fresh) {
				t.Errorf("%v then %v: %s", a, b, diffHint(fresh, pooled))
			}
			if rn.sys != sys {
				t.Errorf("%v then %v: System rebuilt instead of re-armed", a, b)
			}
			hasProxy := b == core.ProxyCacheOnly || b == core.ProxyAndLocalBrowser || b == core.BrowsersAware
			hasIndex := b == core.GlobalBrowsersCacheOnly || b == core.BrowsersAware
			if (sys.Proxy() != nil) != hasProxy {
				t.Errorf("%v then %v: Proxy() = %v", a, b, sys.Proxy())
			}
			if (sys.Browser(0) != nil) != (b != core.ProxyCacheOnly) {
				t.Errorf("%v then %v: Browser(0) = %v", a, b, sys.Browser(0))
			}
			if (sys.Index() != nil) != hasIndex {
				t.Errorf("%v then %v: Index() = %v", a, b, sys.Index())
			}
		}
	}

	base := CoreConfig(&st, DefaultConfig(core.BrowsersAware))
	structural := map[string]func(*core.Config){
		"clients": func(c *core.Config) {
			c.NumClients--
			c.BrowserCapacity = c.BrowserCapacity[:c.NumClients]
		},
		"proxy policy":   func(c *core.Config) { c.ProxyPolicy = cache.GDSF },
		"browser policy": func(c *core.Config) { c.BrowserPolicy = cache.FIFO },
		"index mode":     func(c *core.Config) { c.IndexMode = index.Batched },
		"index strategy": func(c *core.Config) { c.IndexStrategy = index.SelectLeastLoaded },
		"parent":         func(c *core.Config) { c.ParentCapacity = c.ProxyCapacity },
	}
	for name, mut := range structural {
		for _, org := range core.Organizations() {
			sys, err := core.New(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.BrowserCapacity = append([]int64(nil), base.BrowserCapacity...)
			cfg.Organization = org
			mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sys.Reset(cfg) {
				t.Errorf("%s: Reset to %v accepted a structural change", name, org)
			}
			if !sys.Reset(base) {
				t.Errorf("%s: Reset refused the configuration it was built with", name)
			}
		}
	}
}

// TestLBOProjectionMatchesSeparateRun checks the invariant the sweep's
// fold rests on: a proxy-and-local-browser replay without a parent tier also
// yields, request by request, what local-browser-cache-only would, so the
// projected Result and metrics equal a separate LBO run's.
func TestLBOProjectionMatchesSeparateRun(t *testing.T) {
	tr := testTrace(t, 29)
	st := trace.Compute(tr)
	variants := map[string]func(*Config){
		"default":        func(c *Config) {},
		"minimum sizing": func(c *Config) { c.Sizing = SizingMinimum },
		"per-client":     func(c *Config) { c.Sizing = SizingPerClient },
		"warm-up":        func(c *Config) { c.WarmupFraction = 0.25 },
		"revalidation":   func(c *Config) { c.RevalidateAfterSec = 60 },
		"GDSF browsers":  func(c *Config) { c.BrowserPolicy = cache.GDSF },
		"small memory":   func(c *Config) { c.BrowserMemFraction = 0.05 },
		"tiny caches":    func(c *Config) { c.RelativeSize = 0.005 },
	}
	for name, mut := range variants {
		cfg := DefaultConfig(core.ProxyAndLocalBrowser)
		mut(&cfg)
		folded := obs.NewRegistry()
		cfg.Metrics = folded
		var rn Runner
		palb, lbo, err := rn.run(tr, &st, cfg, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		separate := obs.NewRegistry()
		cfg.Metrics = separate
		wantPALB, err := Run(tr, &st, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Organization = core.LocalBrowserCacheOnly
		wantLBO, err := Run(tr, &st, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(palb, wantPALB) {
			t.Errorf("%s: P+LB %s", name, diffHint(wantPALB, palb))
		}
		if !reflect.DeepEqual(lbo, wantLBO) {
			t.Errorf("%s: LBO %s", name, diffHint(wantLBO, lbo))
		}
		if lbo.LocalHits == 0 || lbo.Misses == 0 {
			t.Errorf("%s: LBO has %d local hits, %d misses: the case exercises nothing", name, lbo.LocalHits, lbo.Misses)
		}
		if got, want := sweepCounters(folded), sweepCounters(separate); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counters: folded %v, separate %v", name, got, want)
		}
	}
}
