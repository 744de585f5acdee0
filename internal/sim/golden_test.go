package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"baps/internal/cache"
	"baps/internal/core"
	"baps/internal/index"
	"baps/internal/latency"
	"baps/internal/stats"
	"baps/internal/synth"
	"baps/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden simulation fixtures")

// goldenCases pins the exact simulation outputs of the canet2 profile at
// 5 % workload scale: all five organizations under the paper's default
// configuration, plus a periodic-protocol + TTL + warm-up variant that
// exercises false index hits and the stale counters. Any hot-path
// representation change (string keys -> interned doc IDs, map -> slice
// caches) must keep every Result field bit-identical.
func goldenCases() []Config {
	var cases []Config
	for _, org := range core.Organizations() {
		cases = append(cases, DefaultConfig(org))
	}
	periodic := DefaultConfig(core.BrowsersAware)
	periodic.IndexMode = index.Periodic
	periodic.IndexThreshold = 0.05
	periodic.IndexStrategy = index.SelectLeastLoaded
	periodic.DocTTLSec = 1800
	periodic.WarmupFraction = 0.10
	cases = append(cases, periodic)
	direct := DefaultConfig(core.BrowsersAware)
	direct.ForwardMode = core.DirectForward
	direct.ProxyCachesPeerDocs = false
	direct.ParentRelativeSize = 0.15
	cases = append(cases, direct)
	return cases
}

func goldenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	var prof synth.Profile
	for _, p := range synth.Profiles() {
		if p.Name == "canet2" {
			prof = p
		}
	}
	if prof.Name == "" {
		t.Fatal("canet2 profile missing")
	}
	tr, err := synth.Generate(synth.Scaled(prof, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGoldenEquivalence(t *testing.T) {
	tr := goldenTrace(t)
	st := trace.Compute(tr)
	var got []Result
	for i, cfg := range goldenCases() {
		res, err := Run(tr, &st, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got = append(got, res)
	}

	path := filepath.Join("testdata", "golden_canet2.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to record): %v", err)
	}
	var want []Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cases, produced %d", len(want), len(got))
	}
	for i := range got {
		compareResults(t, i, want[i], got[i])
	}
}

// compareResults asserts field-by-field bit-identical equality, naming the
// first diverging field for debuggability.
func compareResults(t *testing.T, caseIdx int, want, got Result) {
	t.Helper()
	if want == got {
		return
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	tt := wv.Type()
	for f := 0; f < tt.NumField(); f++ {
		if wf, gf := wv.Field(f).Interface(), gv.Field(f).Interface(); wf != gf {
			t.Errorf("case %d (%v): field %s diverged: fixture %v, got %v",
				caseIdx, got.Organization, tt.Field(f).Name, wf, gf)
		}
	}
	if !t.Failed() {
		t.Errorf("case %d: results differ: %s", caseIdx, diffHint(want, got))
	}
}

func diffHint(want, got Result) string {
	return fmt.Sprintf("want %+v, got %+v", want, got)
}

// tierCase is one configuration of the tier/policy golden: which trace, the
// sim configuration, and how it is driven (forced sparse browser slots, or a
// sharded replay).
type tierCase struct {
	Name   string
	trace  *trace.Trace
	st     *trace.Stats
	cfg    Config
	sparse bool // force core.Config.SparseBrowserSlots
	shards int  // > 0: RunSharded over this many shards
}

// tierRecord is one fixture row.
type tierRecord struct {
	Name   string
	Result Result
}

// manyClientTrace is nlanr-uc (the sim.sweep profile, 120 clients) at 2 %
// scale: small enough to replay in milliseconds, large enough that
// clients × docs crosses core's sparse-browser threshold (2^18), so its
// browsers use the sparse slot tables without being asked to.
func manyClientTrace(t *testing.T) *trace.Trace {
	t.Helper()
	prof, err := synth.ByName("nlanr-uc")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := synth.Generate(synth.Scaled(prof, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// tierCases covers what the canet2 golden does not: sparse browser slot
// tables (chosen automatically on a many-client trace, forced on canet2),
// every replacement policy on both the proxy and the browsers, memory tiers
// from tiny to nearly the whole cache, the background pipeline (revalidation
// re-stores a proxy copy in place), the periodic and batched protocols, and
// sharded replay.
func tierCases(t *testing.T) []tierCase {
	t.Helper()
	canet, many := goldenTrace(t), manyClientTrace(t)
	canetSt, manySt := trace.Compute(canet), trace.Compute(many)
	if int64(manySt.NumClients)*int64(manySt.UniqueDocs) <= 1<<18 {
		t.Fatalf("many-client trace is %d clients × %d docs: below the sparse threshold",
			manySt.NumClients, manySt.UniqueDocs)
	}
	var cases []tierCase
	add := func(name string, tr *trace.Trace, st *trace.Stats, cfg Config) *tierCase {
		cases = append(cases, tierCase{Name: name, trace: tr, st: st, cfg: cfg})
		return &cases[len(cases)-1]
	}
	for _, org := range core.Organizations() {
		add("nlanr-uc/"+org.String(), many, &manySt, DefaultConfig(org))
		add("canet2-sparse/"+org.String(), canet, &canetSt, DefaultConfig(org)).sparse = true
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		st   *trace.Stats
	}{{"nlanr-uc", many, &manySt}, {"canet2", canet, &canetSt}} {
		base := DefaultConfig(core.BrowsersAware)
		for _, pol := range []cache.Policy{cache.FIFO, cache.LFU, cache.SIZE, cache.GDSF} {
			cfg := base
			cfg.ProxyPolicy, cfg.BrowserPolicy = pol, pol
			add(tc.name+"/policy-"+pol.String(), tc.tr, tc.st, cfg)
		}
		for _, frac := range []float64{0.05, 0.9} {
			cfg := base
			cfg.BrowserMemFraction = frac
			add(fmt.Sprintf("%s/browser-mem-%g", tc.name, frac), tc.tr, tc.st, cfg)
		}
		pipeline := base
		pipeline.RevalidateAfterSec = 300
		pipeline.PrefetchMinHits = 3
		pipeline.DocTTLSec = 3600
		add(tc.name+"/pipeline", tc.tr, tc.st, pipeline)
		periodic := base
		periodic.IndexMode = index.Periodic
		periodic.IndexStrategy = index.SelectLeastLoaded
		add(tc.name+"/periodic-least-loaded", tc.tr, tc.st, periodic)
		batched := base
		batched.IndexMode = index.Batched
		batched.ForwardMode = core.DirectForward
		batched.ParentRelativeSize = 0.15
		add(tc.name+"/batched-direct-parent", tc.tr, tc.st, batched)
		add(tc.name+"/sharded-3", tc.tr, tc.st, base).shards = 3
	}
	add("canet2-sparse/policy-FIFO", canet, &canetSt, func() Config {
		cfg := DefaultConfig(core.BrowsersAware)
		cfg.ProxyPolicy, cfg.BrowserPolicy = cache.FIFO, cache.FIFO
		return cfg
	}()).sparse = true
	return cases
}

// runTierCase drives one case the way its flags say.
func runTierCase(tc tierCase) (Result, error) {
	switch {
	case tc.shards > 0:
		return RunSharded(trace.NewSliceStream(tc.trace), tc.st, tc.cfg, tc.shards)
	case tc.sparse:
		// sim.Config has no slot-table switch (it is core's business), so
		// this replays through the same engine Run uses, with the core
		// configuration patched.
		if err := tc.cfg.Validate(); err != nil {
			return Result{}, err
		}
		ccfg := buildCoreConfig(tc.st, tc.cfg)
		ccfg.SparseBrowserSlots = true
		sys, err := core.New(ccfg)
		if err != nil {
			return Result{}, err
		}
		tc.trace.Intern()
		warmup := int(tc.cfg.WarmupFraction * float64(len(tc.trace.Requests)))
		rp := newReplay(sys, latency.NewBus(tc.cfg.Latency), &stats.Histogram{}, tc.cfg, warmup)
		rp.stamp(tc.trace.Name, ccfg)
		for _, r := range tc.trace.Requests {
			rp.step(r)
		}
		return rp.finish(), nil
	default:
		return Run(tc.trace, tc.st, tc.cfg)
	}
}

// TestGoldenTiersAndPolicies pins every Result field of tierCases, recorded
// before the memory tier moved inside the inner caches: sparse and dense
// slots, all five policies and any memory fraction must replay bit-identically.
func TestGoldenTiersAndPolicies(t *testing.T) {
	var got []tierRecord
	for _, tc := range tierCases(t) {
		res, err := runTierCase(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		got = append(got, tierRecord{Name: tc.Name, Result: res})
	}

	path := filepath.Join("testdata", "golden_tiers.json")
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to record): %v", err)
	}
	var want []tierRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cases, produced %d", len(want), len(got))
	}
	for i := range got {
		if want[i].Name != got[i].Name {
			t.Fatalf("case %d: fixture names %q, produced %q", i, want[i].Name, got[i].Name)
		}
		t.Run(got[i].Name, func(t *testing.T) { compareResults(t, i, want[i].Result, got[i].Result) })
	}
}
