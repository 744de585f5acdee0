package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"baps/internal/core"
	"baps/internal/obs"
	"baps/internal/synth"
	"baps/internal/trace"
)

// sweepRecord is one fixture row of the sweep golden: every Result of one
// Sweep, organization-major in core.Organizations() order and PaperSizes
// order within, plus the registry's counter totals when the sweep exported
// metrics.
type sweepRecord struct {
	Name     string
	Results  []Result
	Counters map[string]int64 `json:",omitempty"`
}

// sweepTrace is nlanr-uc (the sim.sweep workload's profile) at 2 % scale,
// with the benchmark's seed offset applied.
func sweepTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	prof, err := synth.ByName("nlanr-uc")
	if err != nil {
		t.Fatal(err)
	}
	prof = synth.Scaled(prof, 0.02)
	prof.Seed += seed
	tr, err := synth.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sweepCounters flattens the baps_sim_* counter totals of reg, with each
// bus summary's observation count, into one map.
func sweepCounters(reg *obs.Registry) map[string]int64 {
	snap := reg.SnapshotCounters()
	out := make(map[string]int64)
	for name, v := range snap.Counters {
		out[name] = v
	}
	for name, children := range snap.Vecs {
		for label, v := range children {
			out[name+"{"+label+"}"] = v
		}
	}
	for _, name := range []string{"baps_sim_bus_wait_seconds", "baps_sim_bus_transfer_seconds"} {
		out[name+"_count"] = reg.Summary(name, "").Count()
	}
	return out
}

// TestSweepGolden pins every field of every Result sim.Sweep returns over
// the five organizations × PaperSizes: nlanr-uc ×0.02 on seeds 1 and 2 under
// average and minimum browser sizing, and on seed 1 with warm-up, a parent
// tier, background revalidation, and exported metrics (whose counter totals
// are pinned too). Whatever the sweep driver shares between configurations,
// each Result must stay what a separate run of that configuration gives.
func TestSweepGolden(t *testing.T) {
	traces := map[int64]*trace.Trace{1: sweepTrace(t, 1), 2: sweepTrace(t, 2)}
	type sweepCase struct {
		name string
		seed int64
		cfg  Config
		reg  *obs.Registry
	}
	var cases []sweepCase
	for _, seed := range []int64{1, 2} {
		for _, sz := range []Sizing{SizingAverage, SizingMinimum} {
			cfg := DefaultConfig(core.BrowsersAware)
			cfg.Sizing = sz
			cases = append(cases, sweepCase{name: fmt.Sprintf("seed%d/%s", seed, sz), seed: seed, cfg: cfg})
		}
	}
	warm := DefaultConfig(core.BrowsersAware)
	warm.WarmupFraction = 0.25
	parent := DefaultConfig(core.BrowsersAware)
	parent.ParentRelativeSize = 0.05
	reval := DefaultConfig(core.BrowsersAware)
	reval.RevalidateAfterSec = 60
	metrics := DefaultConfig(core.BrowsersAware)
	reg := obs.NewRegistry()
	metrics.Metrics = reg
	cases = append(cases,
		sweepCase{name: "seed1/warmup-0.25", seed: 1, cfg: warm},
		sweepCase{name: "seed1/parent-0.05", seed: 1, cfg: parent},
		sweepCase{name: "seed1/revalidate-60", seed: 1, cfg: reval},
		sweepCase{name: "seed1/metrics", seed: 1, cfg: metrics, reg: reg},
	)

	var got []sweepRecord
	for _, c := range cases {
		sw, err := Sweep(traces[c.seed], core.Organizations(), PaperSizes, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rec := sweepRecord{Name: c.name}
		for _, org := range core.Organizations() {
			rec.Results = append(rec.Results, sw.ByOrg[org]...)
		}
		if c.reg != nil {
			rec.Counters = sweepCounters(c.reg)
		}
		got = append(got, rec)
	}

	path := filepath.Join("testdata", "golden_sweep.json")
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d sweeps)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to record): %v", err)
	}
	var want []sweepRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d sweeps, produced %d", len(want), len(got))
	}
	for i := range got {
		w, g := want[i], got[i]
		if w.Name != g.Name {
			t.Fatalf("sweep %d: fixture names %q, produced %q", i, w.Name, g.Name)
		}
		t.Run(g.Name, func(t *testing.T) {
			if len(w.Results) != len(g.Results) {
				t.Fatalf("fixture has %d results, produced %d", len(w.Results), len(g.Results))
			}
			for j := range g.Results {
				compareResults(t, j, w.Results[j], g.Results[j])
			}
			if !reflect.DeepEqual(w.Counters, g.Counters) {
				t.Errorf("counters diverged:\nfixture %v\ngot     %v", w.Counters, g.Counters)
			}
		})
	}
}
