package chaos

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"baps/internal/proxy"
)

// fetchVersion issues one /fetch through the given proxy and returns the
// served document version.
func (fc *fedCluster) fetchVersion(t *testing.T, node, docURL string) int64 {
	t.Helper()
	resp, err := fc.client.Get(node + "/fetch?url=" + url.QueryEscape(docURL))
	if err != nil {
		t.Fatalf("fetch %s via %s: %v", docURL, node, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s via %s: status %d", docURL, node, resp.StatusCode)
	}
	v, _ := strconv.ParseInt(resp.Header.Get(proxy.HeaderVersion), 10, 64)
	return v
}

// TestInvalidationSurvivesSiblingKill SIGKILLs a federation sibling while
// the background pipeline is fanning invalidations out to it. The acceptance
// claim: the workqueue must not wedge — the undeliverable sibling jobs
// exhaust their retries into the dead-letter counter, the queue drains back
// to empty, revalidation keeps running, and the survivor still shuts down
// promptly.
func TestInvalidationSurvivesSiblingKill(t *testing.T) {
	if testing.Short() {
		t.Skip("invalidation chaos test skipped in -short")
	}
	fc := newFedCluster(t, 2, func(c *proxy.Config) {
		c.DigestInterval = 100 * time.Millisecond
		c.RevalidateAfter = 200 * time.Millisecond
		c.RevalidateEvery = 75 * time.Millisecond
		// Fail fast against the corpse: a background job's attempt is
		// bounded by PeerTimeout, so a dead sibling pins a worker for
		// 300ms per try, three tries, then dead-letters.
		c.PeerTimeout = 300 * time.Millisecond
	})
	alive, dead := fc.proxies[0], fc.proxies[1]
	docURL := fc.originURL + "/doc/churn"

	// Both proxies cache the document, then wait until each has pushed a
	// digest covering it — the sibling fan-out only targets siblings whose
	// digest may hold the URL.
	if v := fc.fetchVersion(t, alive.BaseURL(), docURL); v != 0 {
		t.Fatalf("initial version via alive = %d, want 0", v)
	}
	fc.fetchVersion(t, dead.BaseURL(), docURL)
	digestsBefore := alive.Snapshot().DigestsReceived
	deadline := time.Now().Add(5 * time.Second)
	for alive.Snapshot().DigestsReceived < digestsBefore+2 {
		if time.Now().After(deadline) {
			t.Fatal("alive proxy never received post-cache digests from sibling")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Kill the sibling hard (listener gone, queue killed, nothing drains),
	// then modify the document. The survivor's revalidator finds the new
	// version and enqueues a sibling invalidation that can only fail.
	dead.Crash()
	fc.origin.Modify("/doc/churn")

	deadline = time.Now().Add(10 * time.Second)
	for {
		st := alive.Snapshot()
		if st.Workqueue != nil && st.Workqueue.DeadLettered >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sibling invalidation never dead-lettered: %+v", st.Workqueue)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The queue must drain back to empty — a wedged worker would hold
	// Running or Depth above zero forever.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := alive.Snapshot().Workqueue
		if st != nil && st.Depth == 0 && st.Running == 0 && st.Waiting == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workqueue never drained after sibling death: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Not wedged: the survivor serves the refreshed copy from cache, and a
	// second modification round-trips through the pipeline too.
	if v := fc.fetchVersion(t, alive.BaseURL(), docURL); v != 1 {
		t.Fatalf("post-kill version via alive = %d, want 1 (revalidated)", v)
	}
	changedBefore := alive.Snapshot().RevalidationsChanged
	fc.origin.Modify("/doc/churn")
	deadline = time.Now().Add(10 * time.Second)
	for alive.Snapshot().RevalidationsChanged <= changedBefore {
		if time.Now().After(deadline) {
			t.Fatal("pipeline stopped revalidating after sibling death")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v := fc.fetchVersion(t, alive.BaseURL(), docURL); v != 2 {
		t.Fatalf("second-round version via alive = %d, want 2", v)
	}

	// Graceful drain stays prompt: Close must not wait out retries against
	// the corpse. (The t.Cleanup Close on an already-closed proxy is a
	// no-op.)
	start := time.Now()
	alive.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("survivor Close took %v; queue drain is wedged", d)
	}
}

// TestInvalidationChurnUnderLoad runs modification churn against a live
// 2-proxy cluster with the pipeline enabled and checks the end state every
// copy converges to: after the churn stops and the revalidation window
// passes, both proxies serve the final version with no origin trip on the
// client path.
func TestInvalidationChurnUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("invalidation churn test skipped in -short")
	}
	fc := newFedCluster(t, 2, func(c *proxy.Config) {
		c.DigestInterval = 100 * time.Millisecond
		c.RevalidateAfter = 150 * time.Millisecond
		c.RevalidateEvery = 50 * time.Millisecond
	})
	const rounds = 5
	docURL := fc.originURL + "/doc/hot"
	for _, p := range fc.proxies {
		fc.fetchVersion(t, p.BaseURL(), docURL)
	}
	for r := 1; r <= rounds; r++ {
		fc.origin.Modify("/doc/hot")
		// Keep the document hot on both proxies while the pipeline chases
		// the new version.
		for i := 0; i < 10; i++ {
			for _, p := range fc.proxies {
				fc.fetchVersion(t, p.BaseURL(), docURL)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, p := range fc.proxies {
			if v := fc.fetchVersion(t, p.BaseURL(), docURL); v != rounds {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for i, p := range fc.proxies {
				t.Logf("proxy %d: version %d", i, fc.fetchVersion(t, p.BaseURL(), docURL))
			}
			t.Fatalf("cluster never converged to version %d", rounds)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i, p := range fc.proxies {
		// A proxy whose copies so far all arrived by refetch after a
		// sibling's invalidation revalidates once its final copy ages.
		deadline := time.Now().Add(10 * time.Second)
		for p.Snapshot().Revalidations == 0 && time.Now().Before(deadline) {
			time.Sleep(25 * time.Millisecond)
		}
		st := p.Snapshot()
		if st.Revalidations == 0 {
			t.Errorf("proxy %d: no revalidations ran", i)
		}
		if st.Workqueue == nil || st.Workqueue.Submitted == 0 {
			t.Errorf("proxy %d: workqueue saw no jobs", i)
		}
	}
}
