package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"baps/internal/proxy"
)

// restartPlan schedules a mid-run SIGKILL + restart of the in-process
// proxy: Crash() (no journal flush, no state save, listener torn down) at
// `at`, a fresh proxy on the same address and data directory after `down`.
type restartPlan struct {
	at   time.Duration
	down time.Duration
}

// restartReport is the `restart` section of the JSON result: the warm-
// restart acceptance numbers.
type restartReport struct {
	KilledAfterSec float64 `json:"killed_after_sec"`
	DownSec        float64 `json:"down_sec"`
	// RestoredDocs is the cache skeleton replayed from the journal by the
	// restarted proxy; RestartToWarmSec is its own warm gauge.
	RestoredDocs     int     `json:"restored_docs"`
	RestartToWarmSec float64 `json:"restart_to_warm_sec"`
	// Hit ratios over equal windows: the last steadyWindow before the kill
	// vs the last steadyWindow of the run. Recovered means the post ratio
	// reached >= 90% of the pre ratio.
	PreHitRatio  float64 `json:"pre_hit_ratio"`
	PostHitRatio float64 `json:"post_hit_ratio"`
	Recovered    bool    `json:"recovered"`
	// Origin rates: steady state measured just before the kill, peak
	// 1-second rate after the restart. SpikeOK means the peak stayed
	// within 2x steady (no thundering herd onto the origin).
	SteadyOriginRPS   float64 `json:"steady_origin_rps"`
	PeakPostOriginRPS float64 `json:"peak_post_origin_rps"`
	OriginSpikeRatio  float64 `json:"origin_spike_ratio"`
	SpikeOK           bool    `json:"origin_spike_ok"`
}

// steadyWindow is the measurement window on each side of the restart.
const steadyWindow = 5 * time.Second

// sample is one per-second observation of the origin and proxy counters.
type sample struct {
	t      time.Time
	origin int64
	reqs   int64
	hits   int64
	up     bool // proxy was alive when sampled
}

type restartController struct {
	plan restartPlan
	cl   *cluster // proxy 0 is the one killed and restarted

	mu       sync.Mutex
	samples  []sample
	killedAt time.Time
	backAt   time.Time
	restored int
	warmSec  float64
}

// run samples counters once a second and executes the kill/restart schedule.
// It owns the cluster's proxy handle swap; workers keep hammering the (dead,
// then reborn) address throughout.
func (rc *restartController) run(ctx context.Context) {
	start := time.Now()
	tick := time.NewTicker(1 * time.Second)
	defer tick.Stop()
	killed := false
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		rc.sample(!killed || !rc.backAt.IsZero())
		if !killed && time.Since(start) >= rc.plan.at {
			killed = true
			rc.killRestart()
		}
	}
}

func (rc *restartController) sample(proxyUp bool) {
	s := sample{t: time.Now(), origin: rc.cl.origin.Fetches(), up: proxyUp}
	if proxyUp {
		st := rc.cl.proxyAt(0).Snapshot()
		s.reqs, s.hits = st.Requests, st.ProxyHits
	}
	rc.mu.Lock()
	rc.samples = append(rc.samples, s)
	rc.mu.Unlock()
}

func (rc *restartController) killRestart() {
	old := rc.cl.proxyAt(0)
	addr := strings.TrimPrefix(old.BaseURL(), "http://")
	rc.mu.Lock()
	rc.killedAt = time.Now()
	rc.mu.Unlock()
	old.Crash()
	time.Sleep(rc.plan.down)

	p, err := proxy.New(rc.cl.pcfg)
	if err != nil {
		fatalf("restart: %v", err)
	}
	for i := 0; ; i++ {
		if err = p.Start(addr); err == nil {
			break
		}
		if i == 20 {
			fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	rc.cl.setProxy(0, p)
	st := p.Snapshot()
	rc.mu.Lock()
	rc.backAt = time.Now()
	rc.restored = st.RestoredDocs
	rc.mu.Unlock()
}

// windowRates extracts (hit ratio, origin RPS) over the samples inside
// [from, to]; ok is false when the window has fewer than two usable samples.
func windowRates(samples []sample, from, to time.Time) (ratio, originRPS float64, ok bool) {
	var in []sample
	for _, s := range samples {
		if s.up && !s.t.Before(from) && !s.t.After(to) {
			in = append(in, s)
		}
	}
	if len(in) < 2 {
		return 0, 0, false
	}
	first, last := in[0], in[len(in)-1]
	dt := last.t.Sub(first.t).Seconds()
	dreq := last.reqs - first.reqs
	if dt <= 0 || dreq <= 0 {
		return 0, 0, false
	}
	return float64(last.hits-first.hits) / float64(dreq),
		float64(last.origin-first.origin) / dt, true
}

// report folds the samples into the restart section. finalStats, when
// non-nil, supplies the authoritative warm gauge from the restarted proxy's
// own /stats.
func (rc *restartController) report(finalStats *proxy.Stats) *restartReport {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r := &restartReport{
		KilledAfterSec: rc.plan.at.Seconds(),
		DownSec:        rc.plan.down.Seconds(),
		RestoredDocs:   rc.restored,
	}
	if finalStats != nil {
		r.RestartToWarmSec = finalStats.RestartToWarmSec
		if finalStats.RestoredDocs > r.RestoredDocs {
			r.RestoredDocs = finalStats.RestoredDocs
		}
	}
	if rc.killedAt.IsZero() || len(rc.samples) == 0 {
		return r
	}
	var preOK, postOK bool
	r.PreHitRatio, r.SteadyOriginRPS, preOK =
		windowRates(rc.samples, rc.killedAt.Add(-steadyWindow), rc.killedAt)
	lastT := rc.samples[len(rc.samples)-1].t
	r.PostHitRatio, _, postOK = windowRates(rc.samples, lastT.Add(-steadyWindow), lastT)
	if preOK && postOK {
		r.Recovered = r.PostHitRatio >= 0.9*r.PreHitRatio
	}
	// Peak post-restart origin rate over consecutive 1s samples.
	var prev *sample
	for i := range rc.samples {
		s := rc.samples[i]
		if !s.up || s.t.Before(rc.backAt) {
			continue
		}
		if prev != nil {
			if dt := s.t.Sub(prev.t).Seconds(); dt > 0 {
				if rps := float64(s.origin-prev.origin) / dt; rps > r.PeakPostOriginRPS {
					r.PeakPostOriginRPS = rps
				}
			}
		}
		prev = &rc.samples[i]
	}
	if r.SteadyOriginRPS > 0 {
		r.OriginSpikeRatio = r.PeakPostOriginRPS / r.SteadyOriginRPS
		r.SpikeOK = r.PeakPostOriginRPS <= 2*r.SteadyOriginRPS
	}
	return r
}
