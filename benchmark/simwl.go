package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"baps/internal/core"
	"baps/internal/sim"
	"baps/internal/synth"
	"baps/internal/trace"
)

// simSpec is one simulator workload. sim.sweep replays an in-core trace
// under every organization × cache size (where a one-pass multi-config
// engine must show); sim.stream replays a many-client .btr out of core in
// shards, one configuration (where a sweep gain that taxes decode, shard
// routing or the sparse tables shows).
type simSpec struct {
	name    string
	profile synth.Profile
	stream  bool // out-of-core sharded replay instead of the in-core sweep
	shards  int
}

// goldenSeed is the seed whose hit ratios golden.json pins.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → configuration → hit ratio, for goldenSeed at the
// frozen workload sizes. To refresh it after a deliberate change to the
// simulator's results, copy "hit_ratios" out of a seed-1 -out file.
func golden() (map[string]map[string]float64, error) {
	var g map[string]map[string]float64
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// seeded returns the workload's profile for a run: same seed, same trace.
func (s *simSpec) seeded(seed uint64) synth.Profile {
	p := s.profile
	p.Seed += int64(seed)
	return p
}

// simInput is what set-up leaves behind for the timed phase.
type simInput struct {
	tr   *trace.Trace // sim.sweep
	path string       // sim.stream: the .btr
	st   trace.Stats
}

// setup generates the input: for the sweep, the in-core trace and its
// statistics; for the stream, the .btr file and the streaming stats pass.
func (s *simSpec) setup(seed uint64, dir string) (*simInput, error) {
	p := s.seeded(seed)
	if !s.stream {
		tr, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		return &simInput{tr: tr, st: trace.Compute(tr)}, nil
	}
	in := &simInput{path: filepath.Join(dir, s.name+".btr")}
	if err := writeBTR(p, in.path); err != nil {
		return nil, err
	}
	err := withBTR(in.path, func(br *trace.BTRReader) (err error) {
		in.st, err = trace.StreamStats(br)
		return err
	})
	return in, err
}

// writeBTR streams the generator straight into a .btr; the trace is never
// resident.
func writeBTR(p synth.Profile, path string) error {
	g, err := synth.NewStream(p)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw, err := trace.NewBTRWriter(f, p.Name)
	if err != nil {
		return err
	}
	buf := make([]trace.Request, trace.StreamBatchSize)
	for {
		n, err := g.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := bw.WriteRequest(buf[i]); err != nil {
				return err
			}
		}
	}
	if err := bw.Finish(g.NumClients(), g.NumDocs(), g.URLAt); err != nil {
		return err
	}
	return f.Close()
}

func withBTR(path string, fn func(*trace.BTRReader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := trace.OpenBTR(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	return fn(br)
}

// pass is one timed unit: a full 20-configuration sweep, or one sharded
// replay of the file. It returns every configuration's hit ratio.
func (s *simSpec) pass(in *simInput) (map[string]float64, error) {
	if !s.stream {
		sw, err := sim.Sweep(in.tr, core.Organizations(), sim.PaperSizes, sim.DefaultConfig(core.BrowsersAware))
		if err != nil {
			return nil, err
		}
		hr := make(map[string]float64)
		for org, results := range sw.ByOrg {
			for i := range results {
				if err := results[i].Check(); err != nil {
					return nil, err
				}
				hr[configKey(org, sw.Sizes[i])] = results[i].HitRatio()
			}
		}
		return hr, nil
	}
	var res sim.Result
	err := withBTR(in.path, func(br *trace.BTRReader) (err error) {
		res, err = sim.RunSharded(br, &in.st, sim.DefaultConfig(core.BrowsersAware), s.shards)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := res.Check(); err != nil {
		return nil, err
	}
	return map[string]float64{headlineConfig: res.HitRatio()}, nil
}

func configKey(org core.Organization, size float64) string {
	return fmt.Sprintf("%s@%g", org, size)
}

// headlineConfig is the configuration hit_ratio reports: the paper's
// browsers-aware proxy at relative cache size 0.10.
var headlineConfig = configKey(core.BrowsersAware, 0.10)

// configsPerPass is how many simulated replays one pass holds.
func (s *simSpec) configsPerPass() int {
	if s.stream {
		return 1
	}
	return len(core.Organizations()) * len(sim.PaperSizes)
}

// runSim runs one simulator workload. There are no requests in flight to
// time, so the unit is the pass: fetch_rps is simulated requests (×
// configurations) per wall second, goodput_mib_s the simulated body bytes
// behind them, fetch_p50_ms the wall time of one pass.
func runSim(spec *simSpec, o runOpts) (*runResult, error) {
	res := newRunResult(spec.name, o.seed, int(math.Round(o.seconds)), o.traced)
	dir, err := os.MkdirTemp(o.tmpRoot, spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var in *simInput
	var setups []float64
	for i := 0; i < o.setupRounds; i++ {
		t0 := time.Now()
		if in, err = spec.setup(o.seed, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	window := o.phase(1)
	if o.traced {
		window = o.phase(shareTracedClosed + shareTracedOpen)
	}
	var first map[string]float64
	var passSec []float64
	start := time.Now()
	for time.Since(start) < window {
		t0 := time.Now()
		hr, err := spec.pass(in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		passSec = append(passSec, time.Since(t0).Seconds())
		res.Attempted += int64(spec.configsPerPass())
		if first == nil {
			first = hr
		}
		// Replays of one input must agree with each other to the bit.
		for k, v := range hr {
			if v != first[k] {
				res.Failed++
			}
		}
	}
	res.HitRatios = first

	if o.seed == goldenSeed && !o.smoke {
		g, err := golden()
		if err != nil {
			return nil, err
		}
		want := g[spec.name]
		if len(want) != len(first) {
			res.Failed++
			res.Notes["golden:count"] = fmt.Sprintf("golden.json lists %d configurations, the run produced %d", len(want), len(first))
		}
		for k, v := range first {
			if w, ok := want[k]; ok && w != v {
				res.Failed++
				res.Notes["golden:"+k] = fmt.Sprintf("got %v, golden.json says %v", v, w)
			}
		}
		res.Notes["golden"] = fmt.Sprintf("%d hit ratios compared with golden.json", len(want))
	}
	res.Correct = res.Failed == 0

	if !o.traced {
		reqs := float64(in.st.NumRequests) * float64(spec.configsPerPass())
		mib := float64(in.st.TotalBytes) * float64(spec.configsPerPass()) / (1 << 20)
		var rps, mibS, ms []float64
		for _, s := range passSec {
			rps = append(rps, reqs/s)
			mibS = append(mibS, mib/s)
			ms = append(ms, s*1e3)
		}
		res.set("fetch_rps", median(rps), len(rps))
		res.set("goodput_mib_s", median(mibS), len(mibS))
		res.set("fetch_p50_ms", median(ms), len(ms))
		res.set("hit_ratio", first[headlineConfig], in.st.NumRequests)
		res.set("setup_s", median(setups), len(setups))
		res.set("peak_rss_mib", peakRSSMiB(), 1)
		return res, nil
	}
	return res, simProbes(res, spec, in, o)
}
