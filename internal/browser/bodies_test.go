package browser

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"baps/internal/proxy"
)

// TestBodyStoreSharesOnlyEqualBytes: the store hands out its held copy only
// for byte-identical bodies, keeps a differing body outside the store, and
// frees a body with its last reference.
func TestBodyStoreSharesOnlyEqualBytes(t *testing.T) {
	s := newBodyStore()
	good := []byte("genuine body")
	held, shared := s.acquire("u", 1, good)
	if !shared || &held[0] != &good[0] {
		t.Fatal("first acquire did not adopt the body")
	}
	twin := []byte("genuine body")
	if held, shared = s.acquire("u", 1, twin); !shared || &held[0] != &good[0] {
		t.Fatal("byte-identical body not deduplicated onto the held copy")
	}
	bad := []byte("tampered body")
	if held, shared = s.acquire("u", 1, bad); shared || !bytes.Equal(held, bad) {
		t.Fatalf("differing body shared=%v held=%q, want its own bytes, unshared", shared, held)
	}
	if held, shared = s.acquire("u", 2, twin); !shared || &held[0] != &twin[0] {
		t.Fatal("another version must be its own entry")
	}
	if got, want := s.stats(), (BodyStats{Bodies: 2, Bytes: 2 * int64(len(good)), Refs: 3}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	s.release("u", 1)
	s.release("u", 2)
	if got := s.stats(); got.Bodies != 1 || got.Refs != 1 {
		t.Fatalf("after two releases: %+v, want the one still-referenced body", got)
	}
	s.release("u", 1)
	if got := s.stats(); got != (BodyStats{}) {
		t.Fatalf("after the last release: %+v, want empty", got)
	}
}

// bodyModel is what one agent was handed: per URL, the version and bytes of
// the last store the agent accepted, and the tombstone floors invalidations
// left. Whether a held URL is still resident (capacity evictions) is read
// from the agent's cache; what it returns must always be these bytes.
type bodyModel struct {
	held  map[string]modelDoc
	floor map[string]int64
}

type modelDoc struct {
	version int64
	body    []byte
}

func newBodyModel() *bodyModel {
	return &bodyModel{held: map[string]modelDoc{}, floor: map[string]int64{}}
}

// stored records a store or push of (u, v, body) the agent accepts unless
// the version is tombstoned.
func (m *bodyModel) stored(u string, v int64, body []byte) {
	if v < m.floor[u] {
		return
	}
	delete(m.floor, u)
	m.held[u] = modelDoc{v, append([]byte(nil), body...)}
}

func (m *bodyModel) invalidated(u string, v int64) {
	if v > m.floor[u] {
		m.floor[u] = v
	}
	if d, ok := m.held[u]; ok && d.version < v {
		delete(m.held, u)
	}
}

// universeBody is the genuine body of u at version v, or, when bad, the same
// bytes with one flipped: both arrive under one (URL, version) key. Every
// call returns a fresh slice, as a network read would.
func universeBody(doc int, v int64, bad bool) []byte {
	b := bytes.Repeat([]byte{byte('a' + doc), byte('0' + v)}, 300+50*doc)
	if bad {
		b[len(b)/2] ^= 0xFF
	}
	return b
}

// checkAgentBodies checks every universe URL a resident of a: the local hit
// and the peer serve return exactly the bytes the agent was handed.
func checkAgentBodies(a *Agent, m *bodyModel, urls []string) error {
	for _, u := range urls {
		if !a.HasCached(u) {
			continue
		}
		want, ok := m.held[u]
		if !ok {
			return fmt.Errorf("agent %d holds %s, which it never accepted", a.ID(), u)
		}
		body, src, err := a.Get(context.Background(), u)
		if err != nil || src != SourceLocal || !bytes.Equal(body, want.body) {
			return fmt.Errorf("agent %d Get %s: src=%v err=%v, bytes equal to what it stored: %v",
				a.ID(), u, src, err, bytes.Equal(body, want.body))
		}
		rec := peerGet(a, u)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.body) ||
			rec.Header().Get(proxy.HeaderVersion) != strconv.FormatInt(want.version, 10) {
			return fmt.Errorf("agent %d peer-served %s: status %d version %s, bytes equal to what it stored: %v",
				a.ID(), u, rec.Code, rec.Header().Get(proxy.HeaderVersion), bytes.Equal(rec.Body.Bytes(), want.body))
		}
	}
	return nil
}

// checkStoreAccounting checks the host's body store against its live agents
// at a quiescent point: its entries are exactly the (URL, version) pairs held
// through the store, each agent's shared entry is the held slice itself, and
// the reference counts and byte total add up.
func checkStoreAccounting(t *testing.T, h *AgentHost) {
	t.Helper()
	type holding struct {
		agent int
		body  []byte
	}
	var held []holding
	keys := []bodyKey{}
	want := map[bodyKey]int{}
	var refs int64
	for _, a := range h.Agents() {
		a.mu.Lock()
		for u, d := range a.docs {
			if d.shared {
				k := bodyKey{u, d.version}
				held, keys = append(held, holding{a.ID(), d.body}), append(keys, k)
				want[k]++
				refs++
			}
		}
		a.mu.Unlock()
	}
	h.bodies.mu.Lock()
	defer h.bodies.mu.Unlock()
	for i, k := range keys {
		e, ok := h.bodies.m[k]
		if b := held[i].body; !ok || len(b) != len(e.body) || (len(b) > 0 && &b[0] != &e.body[0]) {
			t.Fatalf("agent %d's shared %v is not the store's held copy", held[i].agent, k)
		}
	}
	var bytesHeld int64
	for k, e := range h.bodies.m {
		if want[k] != e.refs {
			t.Fatalf("store entry %v has %d references, agents hold %d", k, e.refs, want[k])
		}
		bytesHeld += int64(len(e.body))
	}
	if len(h.bodies.m) != len(want) || h.bodies.refs != refs || h.bodies.bytes != bytesHeld {
		t.Fatalf("store: %d entries, %d refs, %d bytes; agents hold %d pairs, %d refs over %d bytes",
			len(h.bodies.m), h.bodies.refs, h.bodies.bytes, len(want), refs, bytesHeld)
	}
}

// TestBodyStoreInvariantsUnderChurn drives 16 hosted agents on one host
// through random stores (some (URL, version) pairs with differing bytes),
// same-key replacements, capacity evictions, Evict, invalidations, pushes,
// Close and Kill — four workers at once, each owning four agent slots. After
// every operation the agent must return and peer-serve exactly the bytes it
// stored; between rounds the store must match what the agents hold; once
// every agent has departed it must be empty.
func TestBodyStoreInvariantsUnderChurn(t *testing.T) {
	c := startCluster(t, 0, proxy.Config{}, nil)
	h := startHost(t, c, func(cfg *Config) {
		cfg.CacheCapacity = 2_500 // three or four of the universe's bodies
		cfg.Verify = false
	})
	const workers, perWorker, docs, rounds, opsPerRound = 4, 4, 8, 12, 25
	urls := make([]string, docs)
	for d := range urls {
		urls[d] = c.url(fmt.Sprintf("/bodies/%d", d))
	}
	agents := make([][]*Agent, workers)
	models := make([][]*bodyModel, workers)
	for w := range agents {
		for i := 0; i < perWorker; i++ {
			a, err := h.Spawn()
			if err != nil {
				t.Fatal(err)
			}
			agents[w] = append(agents[w], a)
			models[w] = append(models[w], newBodyModel())
		}
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(w)))
				for op := 0; op < opsPerRound; op++ {
					i := rng.IntN(perWorker)
					a, m := agents[w][i], models[w][i]
					d := rng.IntN(docs)
					u, v, bad := urls[d], int64(1+rng.IntN(3)), rng.IntN(5) == 0
					switch k := rng.IntN(20); {
					case k < 10:
						body := universeBody(d, v, bad)
						a.store(u, body, []byte("mark"), v)
						m.stored(u, v, body)
					case k < 12:
						a.Evict(u)
						delete(m.held, u)
					case k < 14:
						if code := postInvalidate(a, u, v); code != http.StatusNoContent {
							t.Errorf("invalidate: status %d", code)
							return
						}
						m.invalidated(u, v)
					case k < 16:
						body := universeBody(d, v, bad)
						want := http.StatusNoContent
						if v < m.floor[u] {
							want = http.StatusGone
						}
						if code := postPush(a, u, v, body); code != want {
							t.Errorf("push: status %d, want %d", code, want)
							return
						}
						m.stored(u, v, body)
					case k < 18:
						if err := checkAgentBodies(a, m, urls); err != nil {
							t.Error(err)
							return
						}
					default:
						if k == 18 {
							a.Close()
						} else {
							a.Kill()
						}
						repl, err := h.Spawn()
						if err != nil {
							t.Errorf("Spawn: %v", err)
							return
						}
						agents[w][i], models[w][i] = repl, newBodyModel()
						continue
					}
					if err := checkAgentBodies(a, m, urls); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		checkStoreAccounting(t, h)
	}
	if st := h.BodyStats(); st.Refs <= int64(st.Bodies) {
		t.Fatalf("no body was ever shared: %+v", st)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if st := h.BodyStats(); st != (BodyStats{}) {
		t.Fatalf("store after every agent departed: %+v, want empty", st)
	}
}

// postInvalidate calls a's /cache/invalidate handler as the proxy would.
func postInvalidate(a *Agent, docURL string, version int64) int {
	body, _ := json.Marshal(proxy.InvalidateRequest{URL: docURL, Version: version})
	req := httptest.NewRequest(http.MethodPost, "/cache/invalidate", bytes.NewReader(body))
	req.Header.Set(proxy.HeaderToken, a.token)
	rec := httptest.NewRecorder()
	a.handleCacheInvalidate(rec, req)
	return rec.Code
}

// postPush calls a's /cache/push handler as the proxy's prefetcher would.
func postPush(a *Agent, docURL string, version int64, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, "/cache/push?url="+url.QueryEscape(docURL), bytes.NewReader(body))
	req.Header.Set(proxy.HeaderToken, a.token)
	req.Header.Set(proxy.HeaderVersion, strconv.FormatInt(version, 10))
	req.Header.Set(proxy.HeaderWatermark, base64.StdEncoding.EncodeToString([]byte("mark")))
	rec := httptest.NewRecorder()
	a.handleCachePush(rec, req)
	return rec.Code
}

// TestHostedFetchesShareOneBody: two hosted agents fetching one document
// hold, and return, one copy of its body.
func TestHostedFetchesShareOneBody(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, nil)
	u := c.url("/shared/body?size=20000")
	var got [][]byte
	for i := 0; i < 2; i++ {
		a, err := h.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := a.Get(context.Background(), u)
		if err != nil || len(body) != 20000 {
			t.Fatalf("Get: %d bytes, %v", len(body), err)
		}
		got = append(got, body)
	}
	if &got[0][0] != &got[1][0] {
		t.Fatal("the second fetch returned its own copy of a body the host already held")
	}
	if st := h.BodyStats(); st != (BodyStats{Bodies: 1, Bytes: 20000, Refs: 2}) {
		t.Fatalf("BodyStats %+v, want one 20000-byte body with two references", st)
	}
}

// TestReadBodyAdoptsHeldCopy: a response byte-identical to the held copy is
// answered with the held slice; one that differs anywhere yields exactly the
// bytes received and leaves the held copy untouched; a short one is an error.
func TestReadBodyAdoptsHeldCopy(t *testing.T) {
	held := bytes.Repeat([]byte("held body "), 1000)
	pristine := bytes.Clone(held)
	resp := func(wire []byte) *http.Response {
		return &http.Response{ContentLength: int64(len(held)), Body: io.NopCloser(bytes.NewReader(wire))}
	}
	if got, err := readBody(resp(pristine), held); err != nil || &got[0] != &held[0] {
		t.Fatalf("identical bytes: err=%v, or a copy in place of the held slice", err)
	}
	for _, at := range []int{0, len(held) / 2, len(held) - 1} {
		wire := bytes.Clone(pristine)
		wire[at] ^= 0xFF
		got, err := readBody(resp(wire), held)
		if err != nil || !bytes.Equal(got, wire) || !bytes.Equal(held, pristine) {
			t.Fatalf("byte %d differs: err=%v, the bytes received returned: %v, held copy intact: %v",
				at, err, bytes.Equal(got, wire), bytes.Equal(held, pristine))
		}
	}
	if _, err := readBody(resp(pristine[:1000]), held); err == nil {
		t.Fatal("a short body read as complete")
	}
}
