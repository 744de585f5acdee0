package proxy

import (
	"bytes"
	"context"
	"crypto/md5"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// docSnapshot copies url's record under the lock (nil when there is none).
func docSnapshot(s *Server, url string) *docRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.docs[url]
	if r == nil {
		return nil
	}
	c := *r
	return &c
}

// countDocs counts the records in state st.
func countDocs(s *Server, st docState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.docs {
		if r.state == st {
			n++
		}
	}
	return n
}

// docsServer is a disk-backed proxy (memory tier: two 16 KiB documents,
// cache: twelve) whose spill worker and write-behind tick are stopped, so
// the test alone decides when a queued disk operation runs (pump).
func docsServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(diskTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.diskOnce.Do(func() { close(s.stopDisk) })
	s.diskWG.Wait()
	t.Cleanup(func() { s.Close() })
	return s
}

func pump(s *Server) {
	for {
		select {
		case op := <-s.spillq:
			s.handleSpill(op)
		default:
			return
		}
	}
}

func docBody(url string, version int64) []byte {
	return bytes.Repeat([]byte(url+"@"+strconv.FormatInt(version, 10)+" "), 16384/(len(url)+3))
}

func store(s *Server, url string, version int64) {
	body := docBody(url, version)
	sum := md5.Sum(body)
	s.storeDoc(url, body, docMeta{version: version, size: int64(len(body)), digest: sum[:]})
}

// hit runs the request path's local lookup and returns the body it served
// (nil on a miss).
func hit(s *Server, url string) []byte {
	w := httptest.NewRecorder()
	if _, ok := s.serveLocal(w, nil, url, -1); !ok {
		return nil
	}
	return w.Body.Bytes()
}

// checkDocs asserts the residency invariants over every record: the body has
// exactly the home its state names, the cache accountant agrees, and the
// bodies whose state puts them in the memory tier fit in it.
func checkDocs(t *testing.T, s *Server, step string) {
	t.Helper()
	type snap struct {
		docRecord
		resident bool
	}
	s.mu.Lock()
	snaps := make(map[string]snap, len(s.docs))
	resident := 0
	for url, r := range s.docs {
		_, res := s.cache.Peek(url)
		snaps[url] = snap{*r, res}
		if res {
			resident++
		}
	}
	cached := s.cache.Len()
	s.mu.Unlock()
	if cached != resident {
		t.Errorf("%s: cache holds %d keys, %d of them have a record", step, cached, resident)
	}
	// A body in docMemory that fits the memory tier is in it (one too large
	// for the tier never enters it), so together they fit.
	memCap := int64(float64(s.cfg.CacheCapacity) * s.cfg.MemFraction)
	var inMem int64
	for _, r := range snaps {
		if r.state == docMemory && r.meta.size <= memCap {
			inMem += r.meta.size
		}
	}
	if inMem > memCap {
		t.Errorf("%s: memory-state bodies hold %d bytes, the memory tier %d", step, inMem, memCap)
	}
	for url, r := range snaps {
		inRAM := r.state == docMemory || r.state == docStaged
		disk, onDisk := s.ds.Meta(url)
		switch {
		case r.resident != (r.state != docMetaOnly):
			t.Errorf("%s: %s state %d but cache resident=%v", step, url, r.state, r.resident)
		case inRAM != (r.body != nil):
			t.Errorf("%s: %s state %d but body in RAM=%v", step, url, r.state, r.body != nil)
		case r.state == docMetaOnly && (r.durable || r.hits != 0):
			t.Errorf("%s: %s meta-only with durable=%v hits=%d", step, url, r.durable, r.hits)
		case (r.state == docDisk || r.durable) && !(onDisk && disk.Version == r.meta.version):
			t.Errorf("%s: %s state %d durable=%v but disk store has (%v, v%d), want v%d",
				step, url, r.state, r.durable, onDisk, disk.Version, r.meta.version)
		case r.state == docDisk && !r.durable:
			t.Errorf("%s: %s on disk but not durable", step, url)
		}
	}
}

// TestDocRecordTransitions walks every transition of the docs.go state
// table. a is the document under test; b, c, … are filler that push it out
// of the memory tier (two documents) or the cache (twelve). After every step
// checkDocs holds and a is in the state the step names.
func TestDocRecordTransitions(t *testing.T) {
	const a = "http://o/a"
	filler := func(n int) func(*Server) {
		return func(s *Server) {
			for i := 0; i < n; i++ {
				store(s, fmt.Sprintf("http://o/filler%d", i), 0)
			}
		}
	}
	type step struct {
		name string
		do   func(*Server)
		want docState
	}
	storeA := step{"store", func(s *Server) { store(s, a, 1) }, docMemory}
	hitA := step{"hit", func(s *Server) { hit(s, a) }, docMemory}
	stage := []step{storeA, hitA, {"demote admitted", filler(2), docStaged}}
	land := append(stage[:3:3], step{"spill lands", pump, docDisk})
	for _, c := range []struct {
		name  string
		steps []step
		check func(*testing.T, *Server)
	}{
		{"one-hit wonder is shed on demotion", []step{
			storeA, {"demote unadmitted", filler(2), docMetaOnly},
		}, func(t *testing.T, s *Server) {
			if n := s.m.spillSkipped.Value(); n != 1 {
				t.Errorf("spill_skipped = %d, want 1", n)
			}
		}},
		{"stage, land, stream, promote", append(land[:4:4],
			step{"stream", func(s *Server) { hit(s, a) }, docDisk},
			step{"promote", func(s *Server) { hit(s, a) }, docMemory},
		), func(t *testing.T, s *Server) {
			if r := docSnapshot(s, a); !r.durable {
				t.Error("promoted body is the disk copy but not marked durable")
			}
			if !bytes.Equal(hit(s, a), docBody(a, 1)) {
				t.Error("promoted body differs from the stored one")
			}
		}},
		{"hit while staged promotes back; the queued spill is a no-op", append(stage[:3:3],
			hitA, step{"queued spill", pump, docMemory},
		), func(t *testing.T, s *Server) {
			if s.ds.Has(a) || docSnapshot(s, a).durable {
				t.Error("a spill ran for a body that had left the stage")
			}
		}},
		{"re-store while staged leaves nothing durable at the old version", append(stage[:3:3],
			step{"re-store", func(s *Server) { store(s, a, 2) }, docMemory},
			step{"queued spill", pump, docMemory},
		), func(t *testing.T, s *Server) {
			if m, ok := s.ds.Meta(a); ok {
				t.Errorf("disk store holds v%d of a document re-stored at v2 while staged", m.Version)
			}
			if docSnapshot(s, a).durable {
				t.Error("re-stored document marked durable")
			}
			if !bytes.Equal(hit(s, a), docBody(a, 2)) {
				t.Error("hit after re-store did not serve the new body")
			}
		}},
		{"failed spill of an unpromoted record sheds the cache entry", append(stage[:3:3],
			step{"spill fails", func(s *Server) { s.ds.Abandon(); pump(s) }, docMetaOnly},
		), func(t *testing.T, s *Server) {
			if n := s.m.spillDropped.Value(); n != 1 {
				t.Errorf("spill_dropped = %d, want 1", n)
			}
			if hit(s, a) != nil {
				t.Error("a document with no body anywhere was served")
			}
		}},
		{"write-behind makes a memory body durable; its demotion writes nothing more", []step{
			storeA, hitA,
			{"write-behind", func(s *Server) { s.writeBehind(); pump(s) }, docMemory},
			{"demote durable", filler(2), docDisk},
		}, func(t *testing.T, s *Server) {
			if w := s.m.diskWrites.Value(); w != 1 {
				t.Errorf("disk_writes = %d, want 1", w)
			}
		}},
		{"disk copy lost behind the proxy's back", append(land[:4:4],
			step{"lost", func(s *Server) { s.ds.Delete(a); hit(s, a) }, docMetaOnly},
		), nil},
		{"a body the cache refuses displaces the older copy", []step{
			storeA,
			{"oversize re-store", func(s *Server) {
				s.storeDoc(a, make([]byte, 200_001), docMeta{version: 2, size: 200_001})
			}, docMetaOnly},
		}, func(t *testing.T, s *Server) {
			if hit(s, a) != nil {
				t.Error("old body served under the new version's meta")
			}
		}},
		{"capacity eviction keeps meta, drops the disk copy", append(land[:4:4],
			step{"evict", func(s *Server) {
				for i := 0; i < 14; i++ { // admitted filler: it stays cached when demoted
					u := fmt.Sprintf("http://o/kept%d", i)
					store(s, u, 0)
					hit(s, u)
				}
				pump(s)
			}, docMetaOnly},
		), func(t *testing.T, s *Server) {
			if r := docSnapshot(s, a); r == nil || r.meta.version != 1 || r.meta.digest == nil {
				t.Errorf("evicted record lost its meta: %+v", r)
			}
			if s.ds.Has(a) {
				t.Error("evicted document's disk copy survived")
			}
		}},
		{"purge frees the record, but not one already at the version", append(land[:4:4],
			step{"purge at v1", func(s *Server) { s.purgeStale(a, 1) }, docDisk},
			step{"purge below v2", func(s *Server) { s.purgeStale(a, 2); pump(s) }, docMetaOnly},
		), func(t *testing.T, s *Server) {
			if docSnapshot(s, a) != nil || s.ds.Has(a) {
				t.Error("purged document left a record or a disk copy")
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := docsServer(t, t.TempDir())
			for _, st := range c.steps {
				st.do(s)
				checkDocs(t, s, st.name)
				got := docMetaOnly
				if r := docSnapshot(s, a); r != nil {
					got = r.state
				}
				if got != st.want {
					t.Fatalf("after %s: state %d, want %d", st.name, got, st.want)
				}
			}
			if c.check != nil {
				c.check(t, s)
			}
		})
	}
}

// TestDocRecordRestore: journal replay re-seats a landed document on disk.
func TestDocRecordRestore(t *testing.T) {
	const a = "http://o/a"
	dir := t.TempDir()
	s := docsServer(t, dir)
	store(s, a, 1)
	hit(s, a)
	store(s, "http://o/b", 0)
	store(s, "http://o/c", 0)
	pump(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := docsServer(t, dir)
	checkDocs(t, s2, "restore")
	if r := docSnapshot(s2, a); r == nil || r.state != docDisk || !r.durable {
		t.Fatalf("restored record %+v, want on disk and durable", r)
	}
	if !bytes.Equal(hit(s2, a), docBody(a, 1)) {
		t.Fatal("restored document served a different body")
	}
}

// TestMetaOutlivesEviction: a peer's copy of a document the proxy evicted
// long ago is still checked by comparing digests against the evicted
// record's meta — the holder sends no watermark here, so the RSA fallback
// for documents the proxy has no record of would reject it.
func TestMetaOutlivesEviction(t *testing.T) {
	s := testServer(t, func(cfg *Config) { cfg.CacheCapacity = 40_000 })
	const a = "http://o/a"
	holder := func(id int, body []byte) peerInfo {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(HeaderVersion, "1")
			w.Write(body)
		}))
		t.Cleanup(srv.Close)
		return peerInfo{id: id, baseURL: srv.URL, token: "t"}
	}
	honest := holder(7, docBody(a, 1))
	tamperer := holder(8, append([]byte("tampered "), docBody(a, 1)...))

	store(s, a, 1)
	store(s, "http://o/b", 0)
	store(s, "http://o/c", 0)
	if r := docSnapshot(s, a); r == nil || r.state != docMetaOnly {
		t.Fatalf("record after eviction: %+v, want meta-only", r)
	}
	res, err := s.fetchFromPeer(context.Background(), honest, a)
	if err != nil || !bytes.Equal(res.body, docBody(a, 1)) || res.meta.version != 1 {
		t.Fatalf("peer serve of an evicted document: v%d, err %v", res.meta.version, err)
	}
	if _, err := s.fetchFromPeer(context.Background(), tamperer, a); err == nil {
		t.Fatal("tampered peer body passed the digest compare")
	}
	if v, rej := s.m.watermarkVerified.Value(), s.m.watermarkRejected.Value(); v != 1 || rej != 1 {
		t.Fatalf("verified=%d rejected=%d, want 1/1", v, rej)
	}
}
