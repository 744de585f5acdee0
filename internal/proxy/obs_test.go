package proxy

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"strings"
	"testing"

	"baps/internal/obs"
	"baps/internal/origin"
)

// scrapeMetrics fetches GET /metrics and parses the exposition text into
// plain samples: unlabeled families map to their name, labeled children to
// name{label="value"}.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// outcomeSum adds the named outcome children of the fetch-outcome vec.
func outcomeSum(m map[string]float64, outcomes ...string) float64 {
	var sum float64
	for _, o := range outcomes {
		sum += m[`baps_proxy_fetch_outcomes_total{outcome="`+o+`"}`]
	}
	return sum
}

// assertStatsMatchMetrics cross-checks every counter the /stats JSON wire
// shape carries against the /metrics exposition of the same server.
func assertStatsMatchMetrics(t *testing.T, s *Server) {
	t.Helper()
	resp, err := http.Get(s.BaseURL() + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	m := scrapeMetrics(t, s.BaseURL())

	checks := []struct {
		name string
		json int64
		prom float64
	}{
		{"requests", st.Requests, m["baps_proxy_requests_total"]},
		{"proxy_hits", st.ProxyHits, outcomeSum(m, "proxy_hit")},
		{"remote_hits", st.RemoteHits, outcomeSum(m, "peer_fetch_forward", "peer_direct_forward", "peer_onion")},
		{"origin_fetches", st.OriginFetches, outcomeSum(m, "origin", "origin_hedged")},
		{"hedged_wins", st.HedgedWins, outcomeSum(m, "origin_hedged")},
		{"false_peer_hits", st.FalsePeerHits, m["baps_proxy_false_peer_total"]},
		{"tamper_rejected", st.TamperRejected, m["baps_proxy_watermark_rejected_total"]},
		{"relay_timeouts", st.RelayTimeouts, m["baps_proxy_relay_timeouts_total"]},
		{"origin_retries", st.OriginRetries, m["baps_proxy_origin_retries_total"]},
		{"heartbeats", st.Heartbeats, m["baps_proxy_heartbeats_total"]},
		{"heartbeat_misses", st.HeartbeatMisses, m["baps_proxy_heartbeat_misses_total"]},
		{"breaker_trips", st.BreakerTrips, m[`baps_proxy_breaker_transitions_total{to="open"}`]},
		{"breaker_readmits", st.BreakerReadmits, m[`baps_proxy_breaker_transitions_total{to="closed"}`]},
		{"unregisters", st.Unregisters, m["baps_proxy_unregisters_total"]},
		{"index_batches", st.IndexBatches, m[`baps_proxy_index_updates_total{op="batch"}`]},
		{"index_batch_deltas", st.IndexBatchDeltas, m["baps_proxy_index_batch_deltas_total"]},
		{"index_gen_gaps", st.IndexGenGaps, m["baps_proxy_index_gen_gaps_total"]},
		{"index_digest_mismatches", st.IndexDigestMismatches, m["baps_proxy_index_digest_mismatches_total"]},
		{"index_resync_pulls", st.IndexResyncPulls, m["baps_proxy_index_resync_pulls_total"]},
		{"index_entries", int64(st.IndexEntries), m["baps_proxy_index_entries"]},
		{"quarantined_entries", int64(st.QuarantinedEntries), m["baps_proxy_index_quarantined_entries"]},
		{"cache_docs", int64(st.CacheDocs), m["baps_proxy_cache_docs"]},
		{"cache_bytes", st.CacheBytes, m["baps_proxy_cache_bytes"]},
		{"clients", int64(st.Clients), m["baps_proxy_clients"]},
		{"breaker_closed", int64(st.BreakerClosed), m[`baps_proxy_breaker_peers{state="closed"}`]},
		{"breaker_open", int64(st.BreakerOpen), m[`baps_proxy_breaker_peers{state="open"}`]},
		{"breaker_half_open", int64(st.BreakerHalfOpen), m[`baps_proxy_breaker_peers{state="half_open"}`]},
	}
	for _, c := range checks {
		if float64(c.json) != c.prom {
			t.Errorf("/stats %s = %d but /metrics reports %g", c.name, c.json, c.prom)
		}
	}
}

// TestFetchOutcomeCountedBeforeBody: a document far larger than the
// response and socket buffers keeps the handler writing until the client
// reads, yet its outcome — origin miss, then proxy hit — is already on
// baps_proxy_fetch_outcomes_total when the response headers arrive, and is
// counted once.
func TestFetchOutcomeCountedBeforeBody(t *testing.T) {
	ots := httptest.NewServer(origin.New(13).Handler())
	defer ots.Close()
	s := testServer(t, func(c *Config) { c.CacheCapacity = 256 << 20 })

	u := s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(ots.URL+"/big/doc?size=16777216")
	for _, want := range []string{outOrigin, outProxyHit} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Obs().VecValue("baps_proxy_fetch_outcomes_total", want); got != 1 {
			resp.Body.Close()
			t.Fatalf("%s outcome = %d with the body unread, want 1", want, got)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != 16<<20 {
			t.Fatalf("%s body: %d bytes, err %v", want, n, err)
		}
	}
	if got := s.Obs().CounterValue("baps_proxy_fetch_outcomes_total"); got != 2 {
		t.Fatalf("outcomes counted %d times for 2 requests", got)
	}
}

// TestStatsMatchesMetrics scripts a request sequence covering origin
// fetches, proxy hits, heartbeats, index ops, and an unregister, then
// asserts /stats and /metrics report identical counts.
func TestStatsMatchesMetrics(t *testing.T) {
	o := origin.New(7)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	s := testServer(t, nil)

	u := ots.URL + "/obs/doc?size=2000"
	for i := 0; i < 3; i++ { // 1 origin fetch + 2 proxy hits
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// One failed upstream (dead origin): the error outcome.
	resp, _ := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape("http://127.0.0.1:1/nope"))
	resp.Body.Close()

	reg := register(t, s, "http://127.0.0.1:1")
	hb, _ := http.NewRequest(http.MethodPost, s.BaseURL()+"/heartbeat", nil)
	hb.Header.Set(HeaderClient, strconv.Itoa(reg.ClientID))
	hb.Header.Set(HeaderToken, reg.Token)
	if resp, err := http.DefaultClient.Do(hb); err == nil {
		resp.Body.Close()
	}
	addIndexEntry(t, s, reg, "http://x/a", 10)
	unreg, _ := http.NewRequest(http.MethodPost, s.BaseURL()+"/unregister", nil)
	unreg.Header.Set(HeaderClient, strconv.Itoa(reg.ClientID))
	unreg.Header.Set(HeaderToken, reg.Token)
	if resp, err := http.DefaultClient.Do(unreg); err == nil {
		resp.Body.Close()
	}

	m := scrapeMetrics(t, s.BaseURL())
	if got := m["baps_proxy_requests_total"]; got != 4 {
		t.Errorf("requests_total = %g, want 4", got)
	}
	if got := outcomeSum(m, "proxy_hit"); got != 2 {
		t.Errorf("proxy_hit outcomes = %g, want 2", got)
	}
	if got := outcomeSum(m, "origin"); got != 1 {
		t.Errorf("origin outcomes = %g, want 1", got)
	}
	if got := outcomeSum(m, "error"); got != 1 {
		t.Errorf("error outcomes = %g, want 1", got)
	}
	if got := m[`baps_proxy_index_updates_total{op="batch"}`]; got != 1 {
		t.Errorf("index batch ops = %g, want 1", got)
	}
	if got := m[`baps_proxy_index_updates_total{op="drop"}`]; got != 1 {
		t.Errorf("index drop ops = %g, want 1", got)
	}
	// Every decision-path outcome is pre-registered, so the exposition
	// covers the full path even before traffic reaches it.
	for _, o := range []string{"proxy_hit", "peer_fetch_forward", "peer_direct_forward", "peer_onion", "origin", "origin_hedged", "error", "canceled"} {
		if _, ok := m[`baps_proxy_fetch_outcomes_total{outcome="`+o+`"}`]; !ok {
			t.Errorf("outcome %q missing from exposition", o)
		}
	}
	if m["baps_proxy_fetch_duration_seconds_count"] != 4 {
		t.Errorf("fetch duration count = %g, want 4", m["baps_proxy_fetch_duration_seconds_count"])
	}

	assertStatsMatchMetrics(t, s)
}

// TestPeerServeMetricsAndTrace drives a real peer-fetch-forward delivery
// through a fake holder and checks per-peer serve accounting, watermark
// verification counts, and the /trace ring.
func TestPeerServeMetricsAndTrace(t *testing.T) {
	o := origin.New(3)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	// Capacity 1: the proxy can never cache, so the second fetch must take
	// the peer path instead of a proxy hit.
	s := testServer(t, func(c *Config) {
		c.CacheCapacity = 1
		c.CachePeerDocs = false
	})

	u := ots.URL + "/peer/doc?size=1500"
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	version := resp.Header.Get(HeaderVersion)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceOrigin {
		t.Fatalf("first fetch source = %q", resp.Header.Get(HeaderSource))
	}

	// A fake holder that serves the exact origin body.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/peer/doc" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HeaderVersion, version)
		w.Write(body)
	}))
	defer peer.Close()
	reg := register(t, s, peer.URL)
	addIndexEntry(t, s, reg, u, int64(len(body)))

	resp2, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(HeaderSource) != SourceRemote {
		t.Fatalf("second fetch source = %q", resp2.Header.Get(HeaderSource))
	}

	m := scrapeMetrics(t, s.BaseURL())
	client := strconv.Itoa(reg.ClientID)
	if got := m[`baps_proxy_peer_serves_total{client="`+client+`"}`]; got != 1 {
		t.Errorf("peer serves for client %s = %g, want 1", client, got)
	}
	if got := m[`baps_proxy_peer_serve_bytes_total{client="`+client+`"}`]; got != float64(len(body)) {
		t.Errorf("peer serve bytes = %g, want %d", got, len(body))
	}
	if got := m["baps_proxy_watermark_verified_total"]; got != 1 {
		t.Errorf("watermark verified = %g, want 1", got)
	}
	if got := outcomeSum(m, "peer_fetch_forward"); got != 1 {
		t.Errorf("peer_fetch_forward outcomes = %g, want 1", got)
	}
	assertStatsMatchMetrics(t, s)

	// The trace ring holds both requests, newest first, with the peer
	// serve annotated.
	tresp, err := http.Get(s.BaseURL() + "/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.SpanRecord
	if err := json.NewDecoder(tresp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if len(recs) != 2 {
		t.Fatalf("trace returned %d spans, want 2", len(recs))
	}
	if recs[0].Outcome != outPeerFetch || recs[1].Outcome != outOrigin {
		t.Errorf("trace outcomes = %q, %q", recs[0].Outcome, recs[1].Outcome)
	}
	foundServe := false
	for _, ev := range recs[0].Events {
		if ev.Name == "peer_serve" {
			foundServe = true
		}
	}
	if !foundServe {
		t.Errorf("peer span missing peer_serve event: %+v", recs[0].Events)
	}
}
