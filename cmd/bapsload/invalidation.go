// Invalidation-churn mode (-modrate): measure what the background pipeline
// buys under document modification churn. The same closed-loop Zipf workload
// runs twice against a fresh in-process federated cluster — once with the
// pipeline disabled (the request-coupled §2 baseline: a modification is only
// discovered when a request happens to miss) and once with background
// revalidation + invalidation fan-out enabled — while a modifier goroutine
// bumps Zipf-chosen document versions at -modrate per second.
//
// A stale serve is a 200 whose X-BAPS-Version is below the origin's version
// as snapshotted BEFORE the request was issued, so the count is a race-free
// lower bound and is computed identically for both runs. The report gates:
//
//   - stale_ok: the pipeline run's stale-serve rate is ≥ 5x below baseline;
//   - origin_ok: the pipeline run's origin fetches per modification stay
//     ≤ 2.0 — steady state is one conditional refetch per modification
//     (304s are free; sibling invalidation makes the second proxy re-pull
//     through the digest tier, not the origin), so 2x bounds the thrash.
package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"baps/internal/proxy"
)

// invalRun is one half (baseline or pipeline) of the churn report.
type invalRun struct {
	Pipeline bool    `json:"pipeline"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	WallSec  float64 `json:"wall_sec"`
	RPS      float64 `json:"rps"`

	Modifications    int64   `json:"modifications"`
	StaleServesTotal int64   `json:"stale_serves_total"`
	StaleServeRate   float64 `json:"stale_serve_rate"` // per completed request

	// OriginFetches counts measurement-window origin document serves (304
	// revalidation answers are not fetches). Per modification ≈ 1 is the
	// pipeline's steady state: each modified resident doc refetched once.
	OriginFetches                int64   `json:"origin_fetches"`
	OriginFetchesPerModification float64 `json:"origin_fetches_per_modification"`

	// Pipeline-side accounting summed over the cluster (zero in baseline).
	Revalidations         int64 `json:"revalidations"`
	RevalidationsChanged  int64 `json:"revalidations_changed"`
	InvalidationsSent     int64 `json:"invalidations_sent"`
	InvalidationsReceived int64 `json:"invalidations_received"`
	CrossProxyFetches     int64 `json:"cross_proxy_fetches"`
	DeadLettered          int64 `json:"dead_lettered"`
}

// invalReport is the combined -modrate report with the acceptance gates.
type invalReport struct {
	Config struct {
		Proxies         int     `json:"proxies"`
		Clients         int     `json:"clients"`
		Docs            int     `json:"docs"`
		Zipf            float64 `json:"zipf"`
		Duration        string  `json:"duration"`
		ModRate         float64 `json:"mod_rate"`
		RevalidateAfter string  `json:"revalidate_after"`
		Seed            uint64  `json:"seed"`
	} `json:"config"`
	Baseline *invalRun `json:"baseline"`
	Pipeline *invalRun `json:"pipeline"`

	// StaleReduction is baseline stale rate over pipeline stale rate (0 when
	// the pipeline run served nothing stale at all — the best outcome).
	StaleReduction float64 `json:"stale_reduction,omitempty"`
	StaleOK        bool    `json:"stale_ok"`
	OriginOK       bool    `json:"origin_ok"`
}

// runInvalidationScenario executes the churn workload twice and gates.
func runInvalidationScenario(n int, w workload, modRate float64, capacity int64) (*invalReport, bool) {
	rep := &invalReport{}
	rep.Config.Proxies = n
	rep.Config.Clients = w.clients
	rep.Config.Docs = w.docs
	rep.Config.Zipf = w.zipfS
	rep.Config.Duration = w.duration.String()
	rep.Config.ModRate = modRate
	rep.Config.RevalidateAfter = invalRevalidateAfter.String()
	rep.Config.Seed = w.seed

	completed := true
	for _, pipeline := range []bool{false, true} {
		label := "baseline (pipeline off)"
		if pipeline {
			label = "pipeline (revalidation + invalidation on)"
		}
		fmt.Fprintf(os.Stderr, "bapsload: churn run: %s, %d proxies, %d clients, %s\n",
			label, n, w.clients, w.duration)
		run, ok := runInvalidationOnce(pipeline, n, w, modRate, capacity)
		completed = completed && ok
		if pipeline {
			rep.Pipeline = run
		} else {
			rep.Baseline = run
		}
	}

	base, pipe := rep.Baseline, rep.Pipeline
	if pipe.StaleServeRate > 0 {
		rep.StaleReduction = base.StaleServeRate / pipe.StaleServeRate
	}
	rep.StaleOK = pipe.StaleServeRate*5 <= base.StaleServeRate && base.StaleServesTotal > 0
	rep.OriginOK = pipe.Modifications > 0 && pipe.OriginFetchesPerModification <= 2.0
	return rep, completed && rep.StaleOK && rep.OriginOK
}

const (
	invalRevalidateAfter = 200 * time.Millisecond
	invalRevalidateEvery = 75 * time.Millisecond
	invalDigestInterval  = 100 * time.Millisecond
)

// runInvalidationOnce drives one warm-then-measure churn run against a fresh
// n-proxy federated cluster over a fresh origin. Each client is pinned to its
// home proxy. A completed request is stale when its version is below the
// origin's, snapshotted before the request went out.
func runInvalidationOnce(pipeline bool, n int, w workload, modRate float64, capacity int64) (*invalRun, bool) {
	cl := startOrigin(int64(w.seed))
	defer cl.close()
	cl.startProxies(n, func(cfg *proxy.Config) {
		cfg.KeyBits = 1024
		cfg.CacheCapacity = capacity
		cfg.DigestInterval = invalDigestInterval
		if pipeline {
			cfg.RevalidateAfter = invalRevalidateAfter
			cfg.RevalidateEvery = invalRevalidateEvery
			cfg.RevalidateRPS = 2048
		}
	})
	home := homes(cl.urls(), w.clients)
	client := newClient(w.clients)
	req := func(ctx context.Context, c int, _ *rand.Rand, zipf *rand.Zipf) outcome {
		path := fmt.Sprintf("/doc/%d", zipf.Uint64())
		expected := cl.origin.Version(path)
		o := fetch(ctx, client, home[c], cl.originURL+path)
		o.stale = o.ok && o.version < expected
		return o
	}

	// Warm: same workload, no churn, nothing counted. Half the measurement
	// window is enough for the Zipf head to go resident on every proxy and
	// for at least one digest round to cover it cluster-wide.
	warmCtx, cancelWarm := context.WithTimeout(context.Background(), w.duration/2)
	w.loop(warmCtx, w.clients, w.seed, req)
	cancelWarm()

	fetchesWarm := cl.origin.Fetches()
	ctx, cancel := context.WithTimeout(context.Background(), w.duration)
	defer cancel()
	mods := modify(ctx, cl.origin, "", w, modRate)
	t := w.loop(ctx, w.clients, w.seed+1, req)
	run := &invalRun{
		Pipeline:         pipeline,
		Requests:         t.requests,
		Errors:           t.errors,
		WallSec:          t.wall.Seconds(),
		RPS:              t.rps(),
		Modifications:    mods(),
		StaleServesTotal: t.stale,
	}

	// Let in-flight background refetches land before the origin snapshot:
	// they are part of this run's cost, not the shutdown's.
	if pipeline {
		time.Sleep(2 * invalRevalidateEvery)
	}
	run.OriginFetches = cl.origin.Fetches() - fetchesWarm
	if run.Modifications > 0 {
		run.OriginFetchesPerModification = float64(run.OriginFetches) / float64(run.Modifications)
	}
	if completed := t.completed(); completed > 0 {
		run.StaleServeRate = float64(run.StaleServesTotal) / float64(completed)
	}
	for _, p := range cl.proxies {
		st := p.Snapshot()
		run.Revalidations += st.Revalidations
		run.RevalidationsChanged += st.RevalidationsChanged
		run.InvalidationsSent += st.InvalidationsSent
		run.InvalidationsReceived += st.InvalidationsReceived
		run.CrossProxyFetches += st.ClusterFetches
		if st.Workqueue != nil {
			run.DeadLettered += st.Workqueue.DeadLettered
		}
	}
	return run, t.check("churn run")
}
