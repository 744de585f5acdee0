package federation

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/bloom"
)

func mustDigest(t *testing.T, urls ...string) []byte {
	t.Helper()
	f, err := bloom.NewFilterForFPR(max(len(urls), 64), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		f.Add(u)
	}
	raw, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Self: ""}, nil); err == nil {
		t.Fatal("empty Self accepted")
	}
	if _, err := New(Config{Self: "http://a", Peers: []string{"http://a"}}, nil); err == nil {
		t.Fatal("self listed as peer accepted")
	}
	if _, err := New(Config{Self: "http://a", Peers: []string{"http://b", "http://b"}}, nil); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

func TestObserveAndCandidates(t *testing.T) {
	c, err := New(Config{
		Self:     "http://self",
		Peers:    []string{"http://b", "http://c"},
		Interval: time.Hour, // digests never go stale
	}, func() []string { return nil })
	if err != nil {
		t.Fatal(err)
	}

	// Before any digest arrives, nobody is a candidate.
	if got := c.Candidates("http://origin/doc1"); len(got) != 0 {
		t.Fatalf("candidates before any digest: %v", got)
	}

	// Unknown sender is rejected.
	if err := c.Observe("http://stranger", mustDigest(t, "x")); err == nil {
		t.Fatal("digest from unknown sibling accepted")
	}
	// Corrupt filter is rejected.
	if err := c.Observe("http://b", []byte("not a filter")); err == nil {
		t.Fatal("corrupt digest accepted")
	}

	// b claims doc1, c claims doc2.
	if err := c.ObserveDocs("http://b", mustDigest(t, "http://origin/doc1"), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveDocs("http://c", mustDigest(t, "http://origin/doc2"), 1); err != nil {
		t.Fatal(err)
	}

	if got := c.Candidates("http://origin/doc1"); len(got) != 1 || got[0] != "http://b" {
		t.Fatalf("candidates for doc1 = %v, want [http://b]", got)
	}
	if got := c.Candidates("http://origin/doc2"); len(got) != 1 || got[0] != "http://c" {
		t.Fatalf("candidates for doc2 = %v, want [http://c]", got)
	}
	if got := c.Candidates("http://origin/absent"); len(got) != 0 {
		t.Fatalf("candidates for absent doc = %v, want none", got)
	}

	st := c.Snapshot()
	if st.DigestsReceived != 2 || st.DigestRejects != 2 {
		t.Fatalf("received=%d rejects=%d, want 2 and 2", st.DigestsReceived, st.DigestRejects)
	}
	if st.Siblings[0].DigestDocs != 1 {
		t.Fatalf("sibling docs = %d, want sender-reported 1", st.Siblings[0].DigestDocs)
	}
}

func TestStaleDigestQuarantines(t *testing.T) {
	c, err := New(Config{
		Self:     "http://self",
		Peers:    []string{"http://b"},
		Interval: 8 * time.Millisecond, // stale after 32ms; Start is never called
	}, func() []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe("http://b", mustDigest(t, "http://origin/doc1")); err != nil {
		t.Fatal(err)
	}
	if got := c.Candidates("http://origin/doc1"); len(got) != 1 {
		t.Fatalf("fresh digest produced no candidate: %v", got)
	}
	time.Sleep(60 * time.Millisecond)
	if got := c.Candidates("http://origin/doc1"); len(got) != 0 {
		t.Fatalf("stale digest still produced candidates: %v", got)
	}
	st := c.Snapshot()
	if !st.Siblings[0].Stale {
		t.Fatal("snapshot does not mark the sibling stale")
	}
	// A fresh digest re-admits it.
	if err := c.Observe("http://b", mustDigest(t, "http://origin/doc1")); err != nil {
		t.Fatal(err)
	}
	if got := c.Candidates("http://origin/doc1"); len(got) != 1 {
		t.Fatalf("re-freshened sibling not re-admitted: %v", got)
	}
}

func TestBreakerQuarantinesAndProbes(t *testing.T) {
	c, err := New(Config{
		Self:             "http://self",
		Peers:            []string{"http://b"},
		Interval:         time.Hour, // digests never go stale
		BreakerThreshold: 2,
		BreakerCooldown:  40 * time.Millisecond,
	}, func() []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe("http://b", mustDigest(t, "http://origin/doc1")); err != nil {
		t.Fatal(err)
	}

	if tripped := c.NoteFailure("http://b"); tripped {
		t.Fatal("breaker tripped on first failure, threshold is 2")
	}
	if !c.NoteFailure("http://b") {
		t.Fatal("second failure did not trip")
	}
	if got := c.Candidates("http://origin/doc1"); len(got) != 0 {
		t.Fatalf("tripped sibling still a candidate: %v", got)
	}

	// After the cooldown, exactly one caller is admitted as a probe.
	time.Sleep(60 * time.Millisecond)
	if got := c.Candidates("http://origin/doc1"); len(got) != 1 {
		t.Fatalf("no half-open probe admitted after cooldown: %v", got)
	}
	if got := c.Candidates("http://origin/doc1"); len(got) != 0 {
		t.Fatalf("second probe admitted while one in flight: %v", got)
	}
	// Probe succeeds: the sibling is re-admitted.
	c.NoteConfirm("http://b")
	if got := c.Candidates("http://origin/doc1"); len(got) != 1 {
		t.Fatalf("sibling not re-admitted after probe success: %v", got)
	}
}

func TestFalsePositiveIsNotAFailure(t *testing.T) {
	c, err := New(Config{
		Self:             "http://self",
		Peers:            []string{"http://b"},
		Interval:         time.Hour, // digests never go stale
		BreakerThreshold: 1,
	}, func() []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe("http://b", mustDigest(t, "http://origin/doc1")); err != nil {
		t.Fatal(err)
	}
	// Digest claimed, locate denied: the sibling answered, so even a
	// threshold-1 breaker must stay closed.
	for i := 0; i < 5; i++ {
		c.NoteFalsePositive("http://b")
	}
	if got := c.Candidates("http://origin/doc1"); len(got) != 1 {
		t.Fatalf("false positives tripped the breaker: %v", got)
	}
	st := c.Snapshot()
	if st.Siblings[0].FalsePositives != 5 {
		t.Fatalf("fps = %d, want 5", st.Siblings[0].FalsePositives)
	}
}

// TestBreakerThresholdZeroDisables: BreakerThreshold <= 0 turns the sibling
// breaker off, as it does the browser-peer breakers, so no run of failures
// quarantines the sibling.
func TestBreakerThresholdZeroDisables(t *testing.T) {
	c, err := New(Config{
		Self:     "http://self",
		Peers:    []string{"http://b"},
		Interval: time.Hour, // digests never go stale
	}, func() []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe("http://b", mustDigest(t, "http://origin/doc1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if c.NoteFailure("http://b") {
			t.Fatalf("failure %d tripped a disabled breaker", i+1)
		}
	}
	if got := c.Candidates("http://origin/doc1"); len(got) != 1 {
		t.Fatalf("disabled breaker quarantined the sibling: %v", got)
	}
	if st := c.Snapshot(); st.Siblings[0].Breaker != "closed" {
		t.Fatalf("breaker = %s, want closed", st.Siblings[0].Breaker)
	}
}

// TestPushAndDriftKick runs the real exchange loop against a stub sibling:
// the startup push arrives immediately, the long interval never fires, and a
// NoteMutation burst past the drift threshold forces an early second push.
func TestPushAndDriftKick(t *testing.T) {
	var pushes atomic.Int64
	var lastMsg atomic.Value // DigestMsg
	sib := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/peer/digest" {
			t.Errorf("unexpected path %s", r.URL.Path)
			http.NotFound(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var msg DigestMsg
		if err := json.Unmarshal(body, &msg); err != nil {
			t.Errorf("bad digest body: %v", err)
		}
		lastMsg.Store(msg)
		pushes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sib.Close()

	c, err := New(Config{
		Self:     "http://self",
		Peers:    []string{sib.URL},
		Interval: time.Hour, // only the startup push and kicks fire
	}, func() []string { return []string{"http://origin/doc1", "http://origin/doc2"} })
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for pushes.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("saw %d pushes, want %d", pushes.Load(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(1)

	msg := lastMsg.Load().(DigestMsg)
	if msg.From != "http://self" || msg.Docs != 2 {
		t.Fatalf("digest msg = %+v", msg)
	}
	raw, err := base64.StdEncoding.DecodeString(msg.Digest)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bloom.UnmarshalFilter(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains("http://origin/doc1") || !f.Contains("http://origin/doc2") {
		t.Fatal("pushed digest does not contain the source URLs")
	}

	// Below the threshold: no push.
	c.NoteMutation(driftThreshold - 1)
	time.Sleep(30 * time.Millisecond)
	if pushes.Load() != 1 {
		t.Fatalf("sub-threshold mutations triggered a push (%d)", pushes.Load())
	}
	// Crossing it: early push.
	c.NoteMutation(1)
	waitFor(2)

	st := c.Snapshot()
	if st.DigestsSent < 2 {
		t.Fatalf("digests_sent = %d, want >= 2", st.DigestsSent)
	}
}
