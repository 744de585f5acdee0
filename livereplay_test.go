package baps

import (
	"math"
	"testing"

	"baps/internal/proxy"
	"baps/internal/synth"
)

// liveTrace builds a small sharing-rich trace suitable for HTTP replay.
func liveTrace(t *testing.T) *Trace {
	t.Helper()
	p := Profile{
		Name: "live-replay", Clients: 8, Requests: 1_200, DurationSec: 600,
		SharedDocs: 250, PrivateDocs: 30,
		SharedFraction: 0.75, ZipfAlpha: 0.8, PrivateZipfAlpha: 0.8,
		RecencyFraction: 0.2, RecencyWindow: 32, RecencyGeomP: 0.3,
		MeanDocKB: 6, SizeSigma: 1.0, MinDocBytes: 256, MaxDocBytes: 1 << 18,
		ModifyRate: 0.01, ClientZipfAlpha: 0.4, Seed: 2024,
	}
	tr, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestLiveReplayMatchesSimulator is the cross-validation of the repository's
// two halves: the live HTTP implementation and the trace-driven simulator
// implement the same §2 protocol on the same LRU substrate, so replaying
// one workload through both must produce closely matching hit ratios, under
// each of the paper's two deliveries of a remote hit.
func TestLiveReplayMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay drives ~1200 real HTTP requests")
	}
	tr := liveTrace(t)
	for _, c := range []struct {
		name    string
		forward proxy.ForwardMode
	}{
		{"fetch", proxy.FetchForward},
		{"direct", proxy.DirectForward},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := LiveReplay(tr, LiveReplayConfig{
				RelativeSize: 0.10,
				Forward:      c.forward,
				Verify:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 1_200 {
				t.Fatalf("replayed %d requests", res.Requests)
			}
			t.Logf("live: local=%d proxy=%d remote=%d miss=%d (HR %.4f) | sim HR %.4f | gap %+.4f",
				res.LiveLocalHits, res.LiveProxyHits, res.LiveRemoteHits, res.LiveMisses,
				res.LiveHitRatio(), res.Sim.HitRatio(), res.HitRatioGap())
			if gap := math.Abs(res.HitRatioGap()); gap > 0.02 {
				t.Errorf("live vs simulated hit ratio diverge by %.4f (>2%%)", gap)
			}
			// Component-level agreement: local hits are fully deterministic
			// in both implementations.
			simLocal := float64(res.Sim.LocalHits) / float64(res.Sim.Requests)
			liveLocal := float64(res.LiveLocalHits) / float64(res.Requests)
			if d := math.Abs(simLocal - liveLocal); d > 0.02 {
				t.Errorf("local-hit ratios diverge by %.4f", d)
			}
			if res.LiveRemoteHits == 0 {
				t.Error("live replay produced no peer-to-peer hits")
			}
			if res.ProxyStats.TamperRejected != 0 {
				t.Errorf("unexpected tamper rejections: %d", res.ProxyStats.TamperRejected)
			}
		})
	}
}

func TestFreezeSizes(t *testing.T) {
	tr := &Trace{Name: "f", NumClients: 1, Requests: []Request{
		{Time: 0, Client: 0, URL: "u", Size: 100},
		{Time: 1, Client: 0, URL: "u", Size: 200}, // modified → frozen back to 100
		{Time: 2, Client: 0, URL: "v", Size: 50},
	}}
	fz := freezeSizes(tr)
	if fz.Requests[1].Size != 100 || fz.Requests[0].Size != 100 || fz.Requests[2].Size != 50 {
		t.Fatalf("freeze wrong: %+v", fz.Requests)
	}
	// The original is untouched.
	if tr.Requests[1].Size != 200 {
		t.Fatal("freezeSizes mutated its input")
	}
}
