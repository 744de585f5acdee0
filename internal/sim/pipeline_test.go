package sim

import (
	"testing"

	"baps/internal/core"
	"baps/internal/trace"
)

// TestRevalidationPolicyRescuesStaleProxy: with the revalidation policy on,
// a proxy copy past the freshness age absorbs an origin-side modification
// as a (revalidated) proxy hit instead of a stale miss.
func TestRevalidationPolicyRescuesStaleProxy(t *testing.T) {
	req := func(tm float64, client int, url string, size int64) trace.Request {
		return trace.Request{Time: tm, Client: client, URL: url, Size: size}
	}
	tr := &trace.Trace{
		Name:       "reval-policy",
		NumClients: 2,
		Requests: []trace.Request{
			req(1, 0, "a", 100),  // origin miss; proxy caches a@100
			req(50, 1, "a", 120), // modified at the origin meanwhile
		},
	}
	base := DefaultConfig(core.BrowsersAware)
	base.Sizing = SizingMinimum
	base.MinBrowserDivisor = 0.25
	base.ProxyCapOverride = 1000

	rb, err := Run(tr, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if rb.StaleProxy != 1 || rb.Misses != 2 || rb.Revalidations != 0 {
		t.Fatalf("baseline: stale=%d misses=%d reval=%d, want 1/2/0",
			rb.StaleProxy, rb.Misses, rb.Revalidations)
	}

	reval := base
	reval.RevalidateAfterSec = 10 // copy is 49s old at the second access
	rr, err := Run(tr, nil, reval)
	if err != nil {
		t.Fatal(err)
	}
	if rr.StaleProxy != 0 || rr.Misses != 1 || rr.ProxyHits != 1 || rr.Revalidations != 1 {
		t.Fatalf("revalidated: stale=%d misses=%d proxyHits=%d reval=%d, want 0/1/1/1",
			rr.StaleProxy, rr.Misses, rr.ProxyHits, rr.Revalidations)
	}

	// A copy younger than the freshness age is NOT rescued: the background
	// checker has not been due yet, so the stale miss stands.
	young := base
	young.RevalidateAfterSec = 100
	ry, err := Run(tr, nil, young)
	if err != nil {
		t.Fatal(err)
	}
	if ry.StaleProxy != 1 || ry.Revalidations != 0 {
		t.Fatalf("young copy rescued: stale=%d reval=%d, want 1/0", ry.StaleProxy, ry.Revalidations)
	}
}
