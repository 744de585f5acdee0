package proxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"baps/internal/origin"
)

// diskTestConfig shapes a proxy whose memory tier holds exactly two 16 KiB
// documents, so a third fetch demotes the LRU one toward the disk tier.
func diskTestConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	cfg.CacheCapacity = 200_000
	cfg.MemFraction = 0.2 // mem tier: 40_000 bytes
	cfg.DataDir = dir
	return cfg
}

func startDiskProxy(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(""); err != nil {
		t.Fatalf("Start: %v", err)
	}
	o := origin.New(11)
	ots := httptest.NewServer(o.Handler())
	return s, ots
}

// fetchDoc GETs url through the proxy and returns (source header, body).
func fetchDoc(t *testing.T, s *Server, url string) (string, []byte) {
	t.Helper()
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		t.Fatalf("fetch %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("fetch %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d", url, resp.StatusCode)
	}
	return resp.Header.Get(HeaderSource), body
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDiskSpillStreamPromote drives the full two-tier disk lifecycle over
// HTTP: admission on second access, spill on demotion, first read-back
// streamed from disk, second read-back promoted to memory.
func TestDiskSpillStreamPromote(t *testing.T) {
	s, ots := startDiskProxy(t, diskTestConfig(t.TempDir()))
	defer s.Close()
	defer ots.Close()

	docA := ots.URL + "/a?size=16384"
	docB := ots.URL + "/b?size=16384"
	docC := ots.URL + "/c?size=16384"

	_, want := fetchDoc(t, s, docA) // origin miss, hits=1
	if src, _ := fetchDoc(t, s, docA); src != SourceProxy {
		t.Fatalf("second access source %q, want proxy", src) // hits=2: admitted
	}
	fetchDoc(t, s, docB) // hits=1
	fetchDoc(t, s, docC) // mem full: A demoted, admitted to disk

	// The write is counted before the worker books it on the record.
	waitFor(t, "spill of A", func() bool { return docSnapshot(s, docA).state == docDisk })

	// First post-spill access streams from disk (no promote)...
	src, got := fetchDoc(t, s, docA)
	if src != SourceProxy {
		t.Fatalf("disk stream source %q, want proxy", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("disk stream body mismatch (%d bytes, want %d)", len(got), len(want))
	}
	// A disk stream's outcome is counted after its body.
	waitFor(t, "stream counted", func() bool { return s.Snapshot().DiskHits >= 1 })
	if st := s.Snapshot(); st.DiskHits != 1 || st.DiskReads != 1 {
		t.Fatalf("after stream: disk_hits=%d disk_reads=%d, want 1/1", st.DiskHits, st.DiskReads)
	}
	if docSnapshot(s, docA).state != docDisk {
		t.Fatal("first disk access promoted the body into memory")
	}

	// ...the second faults it back into the memory tier.
	if src, _ := fetchDoc(t, s, docA); src != SourceProxy {
		t.Fatalf("disk promote source %q, want proxy", src)
	}
	waitFor(t, "promote counted", func() bool { return s.Snapshot().DiskHits >= 2 })
	if st := s.Snapshot(); st.DiskHits != 2 {
		t.Fatalf("after promote: disk_hits=%d, want 2", st.DiskHits)
	}
	if docSnapshot(s, docA).state != docMemory {
		t.Fatal("second disk access did not promote the body")
	}
	// Disk hits are proxy hits on /stats.
	if st := s.Snapshot(); st.ProxyHits < 3 {
		t.Fatalf("proxy_hits=%d, want >=3 (1 mem + 2 disk)", st.ProxyHits)
	}
}

// TestDiskAdmissionShedsOneHitWonders: a body demoted after a single access
// never reaches the disk.
func TestDiskAdmissionShedsOneHitWonders(t *testing.T) {
	s, ots := startDiskProxy(t, diskTestConfig(t.TempDir()))
	defer s.Close()
	defer ots.Close()

	// Every doc fetched exactly once: each demotion is a one-hit wonder.
	for _, p := range []string{"/w1", "/w2", "/w3", "/w4", "/w5"} {
		fetchDoc(t, s, ots.URL+p+"?size=16384")
	}
	waitFor(t, "one-hit wonders shed", func() bool { return s.m.spillSkipped.Value() >= 3 })
	if w := s.Snapshot().DiskWrites; w != 0 {
		t.Fatalf("disk_writes=%d, want 0 (nothing admitted)", w)
	}
}

// TestDiskWarmRestartGraceful closes a disk-backed proxy and reopens it on
// the same directory: cached documents, /stats counters, client
// registrations (tokens stay valid) and batch generations all survive, and
// restored documents serve without touching the origin.
func TestDiskWarmRestartGraceful(t *testing.T) {
	dir := t.TempDir()
	s, ots := startDiskProxy(t, diskTestConfig(dir))
	defer ots.Close()

	// Register a browser so the client table has something to persist.
	rr, err := http.Post(s.BaseURL()+"/register", "application/json",
		bytes.NewReader([]byte(`{"peer_url":"http://127.0.0.1:1"}`)))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	var reg RegisterResponse
	if err := json.NewDecoder(rr.Body).Decode(&reg); err != nil {
		t.Fatalf("register decode: %v", err)
	}
	rr.Body.Close()
	s.batches.seed(reg.ClientID, 5)

	// Six documents, each accessed twice (admitted), cycling the mem tier so
	// most spill to disk.
	docs := []string{"/d1", "/d2", "/d3", "/d4", "/d5", "/d6"}
	bodies := make(map[string][]byte)
	for _, p := range docs {
		u := ots.URL + p + "?size=16384"
		_, b := fetchDoc(t, s, u)
		fetchDoc(t, s, u)
		bodies[u] = b
	}
	waitFor(t, "spills to settle", func() bool {
		return s.Snapshot().DiskWrites >= 3 && countDocs(s, docStaged) == 0
	})
	// Every request is booked once the outcomes add up (a disk-streamed hit
	// is counted only after its body).
	waitFor(t, "outcomes counted", func() bool {
		st := s.Snapshot()
		return st.ProxyHits+st.OriginFetches == st.Requests
	})
	pre := s.Snapshot()
	prePEM := fetchPubkey(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := New(diskTestConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := s2.Start(""); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()

	if !bytes.Equal(fetchPubkey(t, s2), prePEM) {
		t.Fatal("watermark key changed across restart; agents' cached pubkey is dead")
	}
	st := s2.Snapshot()
	if st.RestoredDocs < 3 {
		t.Fatalf("restored_docs=%d, want >=3", st.RestoredDocs)
	}
	if st.Requests != pre.Requests {
		t.Fatalf("restored requests=%d, want %d", st.Requests, pre.Requests)
	}
	if st.ProxyHits != pre.ProxyHits {
		t.Fatalf("restored proxy_hits=%d, want %d", st.ProxyHits, pre.ProxyHits)
	}
	if st.Clients != 1 {
		t.Fatalf("restored clients=%d, want 1", st.Clients)
	}
	s2.regMu.RLock()
	tokID, tokOK := s2.tokens[reg.Token]
	s2.regMu.RUnlock()
	if !tokOK || tokID != reg.ClientID {
		t.Fatalf("restored token maps to (%d,%v), want (%d,true)", tokID, tokOK, reg.ClientID)
	}
	if gens := s2.batches.snapshotGens(); gens[reg.ClientID] != 5 {
		t.Fatalf("restored gen=%d, want 5", gens[reg.ClientID])
	}

	// A restored document serves locally — the origin is never contacted.
	for u, want := range bodies {
		if _, _, st, _ := s2.docs.Peek(u); st == docMetaOnly {
			continue
		}
		before := st.OriginFetches
		src, got := fetchDoc(t, s2, u)
		if src != SourceProxy {
			t.Fatalf("restored doc source %q, want proxy", src)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored doc body mismatch for %s", u)
		}
		if after := s2.Snapshot().OriginFetches; after != before {
			t.Fatalf("restored doc hit the origin (%d -> %d)", before, after)
		}
		break
	}
	// The warm tracker advances after the body is written.
	waitFor(t, "restart_to_warm_sec > 0 after serving restored docs", func() bool {
		return s2.Snapshot().RestartToWarmSec > 0
	})
}

// TestDiskCrashRestartRecovers kills the proxy without any flush (the
// SIGKILL stand-in) and reopens the directory: everything the interval
// flush pushed to the OS is recovered.
func TestDiskCrashRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	s, ots := startDiskProxy(t, diskTestConfig(dir))
	defer ots.Close()

	u := ots.URL + "/crash-doc?size=16384"
	_, want := fetchDoc(t, s, u)
	fetchDoc(t, s, u) // admitted
	// Cycle the mem tier to demote and spill it.
	fetchDoc(t, s, ots.URL+"/f1?size=16384")
	fetchDoc(t, s, ots.URL+"/f2?size=16384")
	waitFor(t, "spill before crash", func() bool { return s.Snapshot().DiskWrites >= 1 })
	// Let the disk store's interval flush (100ms) reach the OS.
	time.Sleep(400 * time.Millisecond)
	s.Crash()

	s2, err := New(diskTestConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if err := s2.Start(""); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	defer s2.Close()

	if st := s2.Snapshot(); st.RestoredDocs < 1 {
		t.Fatalf("restored_docs=%d after crash, want >=1", st.RestoredDocs)
	}
	before := s2.Snapshot().OriginFetches
	src, got := fetchDoc(t, s2, u)
	if src != SourceProxy {
		t.Fatalf("post-crash source %q, want proxy", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-crash body mismatch")
	}
	if after := s2.Snapshot().OriginFetches; after != before {
		t.Fatal("post-crash fetch hit the origin")
	}
}

// TestWriteBehindPersistsHotMemTier: a hot document that never demotes out
// of the memory tier still gains a durable disk copy (via the write-behind
// tick) and survives a SIGKILL.
func TestWriteBehindPersistsHotMemTier(t *testing.T) {
	dir := t.TempDir()
	s, ots := startDiskProxy(t, diskTestConfig(dir))
	defer ots.Close()

	u := ots.URL + "/hot?size=16384"
	_, want := fetchDoc(t, s, u)
	fetchDoc(t, s, u) // hits=2: admitted, resident in the mem tier
	// No demotion ever happens; only write-behind can persist it.
	waitFor(t, "write-behind", func() bool { return s.Snapshot().DiskWrites >= 1 })
	// The write is counted before the worker books it on the record.
	waitFor(t, "durable after write-behind", func() bool { return docSnapshot(s, u).durable })
	if st := docSnapshot(s, u).state; st != docMemory {
		t.Fatalf("state %d after write-behind, want memory", st)
	}
	time.Sleep(400 * time.Millisecond) // interval fsync reaches the OS
	s.Crash()

	s2, err := New(diskTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(""); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	before := s2.Snapshot().OriginFetches
	src, got := fetchDoc(t, s2, u)
	if src != SourceProxy || !bytes.Equal(got, want) {
		t.Fatalf("hot doc lost across crash (source %q)", src)
	}
	if s2.Snapshot().OriginFetches != before {
		t.Fatal("hot doc refetched from origin after crash")
	}
}

// TestCrashRestartRederivesWatermark: no signature is journaled, yet a
// SIGKILLed proxy reopened on its data directory (same key.pem) hands a
// registered client the very watermark bytes an agent stored before the
// crash, and that agent's stored copy of a document the proxy lost
// altogether still verifies on the peer path.
func TestCrashRestartRederivesWatermark(t *testing.T) {
	dir := t.TempDir()
	s, ots := startDiskProxy(t, diskTestConfig(dir))
	defer ots.Close()

	// The "agent": a registered peer serving what it stored pre-crash.
	type storedDoc struct {
		body []byte
		mark string
	}
	var mu sync.Mutex
	stored := make(map[string]storedDoc)
	agent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		d, ok := stored[r.URL.Query().Get("url")]
		mu.Unlock()
		if r.URL.Path != "/peer/doc" || !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HeaderVersion, "0")
		w.Header().Set(HeaderWatermark, d.mark)
		w.Write(d.body)
	}))
	defer agent.Close()
	reg := register(t, s, agent.URL)
	store := func(u string) storedDoc {
		body, _, mark := markedFetch(t, s, reg, u)
		if mark == "" {
			t.Fatalf("no watermark on registered fetch of %s", u)
		}
		mu.Lock()
		stored[u] = storedDoc{body, mark}
		mu.Unlock()
		return storedDoc{body, mark}
	}

	// lost is fetched once: a one-hit wonder never reaches the disk.
	lost := ots.URL + "/lost-doc?size=16384"
	store(lost)
	kept := ots.URL + "/kept-doc?size=16384"
	pre := store(kept)
	fetchDoc(t, s, kept) // admitted
	fetchDoc(t, s, ots.URL+"/f1?size=16384")
	fetchDoc(t, s, ots.URL+"/f2?size=16384")
	waitFor(t, "spill before crash", func() bool { return s.Snapshot().DiskWrites >= 1 })
	s.saveState()                      // the registration survives the crash
	time.Sleep(400 * time.Millisecond) // interval flush reaches the OS
	s.Crash()

	s2, err := New(diskTestConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if err := s2.Start(""); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	defer s2.Close()
	if s2.marks.Len() != 0 {
		t.Fatal("watermark memo survived the crash; nothing should persist it")
	}

	signedBefore := s2.Snapshot().WatermarkSigned
	body, source, mark := markedFetch(t, s2, reg, kept)
	if source != SourceProxy || !bytes.Equal(body, pre.body) {
		t.Fatalf("restored doc: source %q, body equal %v", source, bytes.Equal(body, pre.body))
	}
	if mark != pre.mark {
		t.Fatal("restored document's watermark differs from the bytes the agent stored before the crash")
	}
	if got := s2.Snapshot().WatermarkSigned - signedBefore; got != 1 {
		t.Fatalf("restored document cost %d signatures, want 1 (re-derived on first demand)", got)
	}

	// The proxy has no record of the lost document; the agent's stored
	// watermark is all that vouches for its copy.
	if docSnapshot(s2, lost) != nil {
		t.Fatal("one-hit document survived the crash; the peer-path check below would not run")
	}
	s2.Index().Add(indexEntryFor(s2, reg.ClientID, lost, 16384))
	source, body = fetchDoc(t, s2, lost)
	mu.Lock()
	want := stored[lost].body
	mu.Unlock()
	if source != SourceRemote || !bytes.Equal(body, want) {
		t.Fatalf("agent's pre-crash copy: source %q, body equal %v (want remote/true)", source, bytes.Equal(body, want))
	}
	if st := s2.Snapshot(); st.TamperRejected != 0 {
		t.Fatalf("tamper_rejected = %d serving a pre-crash copy", st.TamperRejected)
	}
}

// TestRestoreStateFromRelayKeyBlob: a state blob written by a build that
// issued covert-path relay keys carries a relay_key per client. Restoring it
// drops that field and keeps every client's id, peer URL and token, so the
// clients' credentials stay valid across the upgrade restart.
func TestRestoreStateFromRelayKeyBlob(t *testing.T) {
	const blob = `{"saved_unix":1760745600,"next_id":4,` +
		`"clients":[` +
		`{"id":0,"peer_url":"http://127.0.0.1:41001","token":"q3xK9fTb2mW8LzR1vN0eYA","relay_key":"AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8="},` +
		`{"id":3,"peer_url":"http://127.0.0.1:41003","token":"Zp7Qw1Ls4Hk0Jd9Xc2Vb6g","relay_key":"Hx4dHBsaGRgXFhUUExIREA8ODQwLCgkIBwYFBAMCAQA="}],` +
		`"gens":{"0":7,"3":2},"counters":{"counters":{"baps_proxy_requests_total":12}}}`
	s := testServer(t, nil)
	s.restoreState([]byte(blob))

	want := []persistClient{
		{ID: 0, PeerURL: "http://127.0.0.1:41001", Token: "q3xK9fTb2mW8LzR1vN0eYA"},
		{ID: 3, PeerURL: "http://127.0.0.1:41003", Token: "Zp7Qw1Ls4Hk0Jd9Xc2Vb6g"},
	}
	s.regMu.RLock()
	n, nextID := len(s.peers), s.nextID
	s.regMu.RUnlock()
	if n != len(want) || nextID != 4 {
		t.Fatalf("restored %d clients, next id %d; want %d, 4", n, nextID, len(want))
	}
	for _, c := range want {
		s.regMu.RLock()
		p, ok := s.peers[c.ID]
		byURL, owner := s.peersByURL[c.PeerURL], s.tokens[c.Token]
		s.regMu.RUnlock()
		if !ok || p.baseURL != c.PeerURL || p.token != c.Token || byURL != c.ID || owner != c.ID {
			t.Fatalf("client %d restored as %+v (by URL %d, token owner %d), want %+v", c.ID, p, byURL, owner, c)
		}
		req, _ := http.NewRequest(http.MethodPost, s.BaseURL()+"/heartbeat", nil)
		req.Header.Set(HeaderClient, strconv.Itoa(c.ID))
		req.Header.Set(HeaderToken, c.Token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("client %d heartbeat with its restored token: status %d, want 204", c.ID, resp.StatusCode)
		}
	}
}

// TestRestoreStateSkipsRetiredOutcome: a state blob from a build with an
// outcome this one cannot emit (peer_onion) restores the outcomes it still
// has and the per-client serve counts, and /metrics shows no child that
// /stats does not account for.
func TestRestoreStateSkipsRetiredOutcome(t *testing.T) {
	const blob = `{"counters":{"vecs":{` +
		`"baps_proxy_fetch_outcomes_total":{"peer_onion":3,"peer_fetch_forward":2},` +
		`"baps_proxy_peer_serves_total":{"7":4}}}}`
	s := testServer(t, nil)
	s.restoreState([]byte(blob))

	m := scrapeMetrics(t, s.BaseURL())
	outcomes := map[string]bool{}
	for _, o := range []string{outProxyHit, outDiskHit, outPeerFetch, outPeerDirect, outClusterHit,
		outOrigin, outOriginHedged, outError, outCanceled} {
		outcomes[`baps_proxy_fetch_outcomes_total{outcome="`+o+`"}`] = true
	}
	for name := range m {
		if strings.HasPrefix(name, "baps_proxy_fetch_outcomes_total{") && !outcomes[name] {
			t.Errorf("/metrics shows %s, an outcome this build cannot emit", name)
		}
	}
	if got := outcomeSum(m, outPeerFetch); got != 2 {
		t.Errorf("restored peer_fetch_forward = %g, want 2", got)
	}
	if got := m[`baps_proxy_peer_serves_total{client="7"}`]; got != 4 {
		t.Errorf("restored peer serves for client 7 = %g, want 4", got)
	}
	if st := s.Snapshot(); st.RemoteHits != 2 {
		t.Errorf("/stats remote_hits = %d, want 2", st.RemoteHits)
	}
	assertStatsMatchMetrics(t, s)
}

// TestRestoreStateSkipsRetiredPrefetch: a state blob from a build that still
// pushed prefetches carries the proxy's two prefetch counters and the
// workqueue's kind="prefetch" children. This build restores the job kinds it
// still submits and brings back no prefetch series.
func TestRestoreStateSkipsRetiredPrefetch(t *testing.T) {
	const blob = `{"counters":{` +
		`"counters":{"baps_proxy_prefetch_pushes_total":5,"baps_proxy_prefetch_declined_total":2},` +
		`"vecs":{"baps_wq_submitted_total":{"prefetch":7,"revalidate":3},` +
		`"baps_wq_completed_total":{"prefetch":6,"revalidate":3},` +
		`"baps_wq_dead_letters_total":{"prefetch":1}}}}`
	s := testServer(t, nil)
	s.restoreState([]byte(blob))

	m := scrapeMetrics(t, s.BaseURL())
	for name := range m {
		if strings.Contains(name, "prefetch") {
			t.Errorf("/metrics shows %s, a series this build cannot emit", name)
		}
	}
	for _, name := range []string{`baps_wq_submitted_total{kind="revalidate"}`, `baps_wq_completed_total{kind="revalidate"}`} {
		if got := m[name]; got != 3 {
			t.Errorf("restored %s = %g, want 3", name, got)
		}
	}
	assertStatsMatchMetrics(t, s)
}
