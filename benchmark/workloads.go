package main

import (
	"time"

	"baps/internal/proxy"
	"baps/internal/synth"
)

// workload is one named set of inputs. Why each exists is in README.md and,
// in one line, in BENCHMARK.json.
type workload struct {
	live *liveSpec
	sim  *simSpec
}

func (w workload) name() string {
	if w.live != nil {
		return w.live.name
	}
	return w.sim.name
}

func (w workload) run(o runOpts) (*runResult, error) {
	if w.live != nil {
		return runLive(w.live, o)
	}
	return runSim(w.sim, o)
}

// Open-loop arrival rates, frozen at about a quarter of the closed-loop
// fetch_rps each workload reached on the commit that added the benchmark
// (33 000, 13 000 and 2 200 req/s). At half, the open loop's own queueing
// behind two workers and a 1 ms timer made the median latency spread 15-30 %
// between runs. They are constants on purpose: latency is compared at the
// same offered load on every later commit.
const (
	openRateHot    = 8000
	openRatePeer   = 3000
	openRateOrigin = 500
)

// workloads returns the frozen set. Populations are sized so that set-up
// (run three times per run) and the timed phases fit the run-time cap in
// README.md; the shapes are the issue's.
func workloads() []workload {
	return []workload{
		{live: &liveSpec{
			name: "live.hot", docs: 2000, sizes: []sizeClass{{1 << 10, 20}}, zipfS: 1.2,
			warmup: -1, openRate: openRateHot, keyBits: 2048, probes: readPathProbes,
			configure: func(cfg *proxy.Config, _ string) { cfg.CacheCapacity = 256 << 20 },
		}},
		{live: &liveSpec{
			name: "live.peer", docs: 2000, sizes: []sizeClass{{8 << 10, 20}}, zipfS: 1.2,
			warmup: 8000, openRate: openRatePeer, keyBits: 2048, probes: peerPathProbes,
			hosts: 2, agentsPerHost: 128, agentCache: 256 << 10,
			configure: func(cfg *proxy.Config, _ string) {
				cfg.CacheCapacity = 1 << 20
				cfg.CachePeerDocs = false
			},
		}},
		{live: &liveSpec{
			name: "live.origin", docs: 50000,
			sizes: []sizeClass{{16 << 10, 14}, {128 << 10, 5}, {1 << 20, 1}}, zipfS: 1.05,
			modEvery: 50, warmup: 3000, openRate: openRateOrigin, keyBits: 2048, probes: writePathProbes,
			configure: func(cfg *proxy.Config, dir string) {
				// 64 MiB of memory over a 256 MiB disk tier, default
				// (interval) fsync, background revalidation on.
				cfg.CacheCapacity = 320 << 20
				cfg.MemFraction = 0.2
				cfg.DiskMaxBytes = 256 << 20
				cfg.DataDir = dir
				cfg.RevalidateAfter = 2 * time.Second
			},
		}},
		{sim: &simSpec{name: "sim.sweep", profile: sweepProfile(sweepFactor)}},
		{sim: &simSpec{name: "sim.stream", profile: streamProfile(50_000, 1_000_000), stream: true, shards: 2}},
	}
}

// sweepFactor scales nlanr-uc so one 20-configuration sweep takes about a
// second: the window then holds enough sweeps for a median.
const sweepFactor = 0.5

func sweepProfile(factor float64) synth.Profile {
	p, err := synth.ByName("nlanr-uc")
	if err != nil {
		panic(err) // the profile is part of this module
	}
	return synth.Scaled(p, factor)
}

// streamProfile is synth-1m's shape at a population that replays in about a
// second: many clients, few requests each, a shared universe scaled with
// the request count.
func streamProfile(clients, requests int) synth.Profile {
	p := synth.MillionClients()
	scale := float64(requests) / float64(p.Requests)
	p.Clients = clients
	p.Requests = requests
	p.SharedDocs = int(float64(p.SharedDocs) * scale)
	p.DurationSec *= scale
	return p
}

// smokeWorkloads is the same five shapes at populations a unit test can
// afford: tiny universes, small keys, few agents.
func smokeWorkloads() []workload {
	ws := workloads()
	for _, w := range ws {
		switch l, s := w.live, w.sim; {
		case l != nil:
			l.docs = 200
			l.keyBits = 1024
			l.openRate = 200
			if l.warmup > 0 {
				l.warmup = 100
			}
			if l.hosts > 0 {
				l.agentsPerHost = 8
			}
			if len(l.sizes) > 1 {
				l.sizes = []sizeClass{{4 << 10, 14}, {16 << 10, 5}, {64 << 10, 1}}
			}
		case s.stream:
			s.profile = streamProfile(500, 10_000)
		default:
			s.profile = sweepProfile(0.02)
		}
	}
	return ws
}
