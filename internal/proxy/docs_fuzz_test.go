package proxy

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"baps/internal/diskstore"
)

// FuzzDocRecord drives a disk-backed proxy's document records through every
// transition of the docstore table and checks each step against docModel, a
// reference model of that table over an LRU two-tier cache. After every
// step the records (state, version, durability, hit count), the cache's
// key order and the disk store must agree with the model, and:
//
//   - s.cache holds a key exactly when its record is resident;
//   - a served body is the record's version and matches its digest;
//   - a durable record's version is in the disk store (unless the test
//     deleted it behind the proxy's back).
//
// Each operation is two input bytes: the kind (store, modify, hit, pump,
// lost, purge, write-behind, crash, oversize store) and its argument (URL,
// body size class, purge mode).
func FuzzDocRecord(f *testing.F) {
	// arg: URL index | size class<<3 | purge-newer 32. a and b at 30 000
	// bytes overflow the 40 000-byte memory tier.
	f.Add([]byte{0, 16, 2, 16, 0, 17, 3, 0, 2, 16, 2, 16})          // stage, land, stream, promote
	f.Add([]byte{0, 16, 2, 16, 0, 17, 3, 0, 7, 0, 2, 16, 2, 16})    // land, crash, restore, promote
	f.Add([]byte{0, 16, 2, 16, 0, 17, 7, 0})                        // a crash fails the staged spill
	f.Add([]byte{0, 8, 2, 8, 6, 0, 3, 0, 4, 8, 0, 17, 0, 10, 2, 8}) // write-behind, lost, demote, hit
	f.Add([]byte{0, 24, 0, 25, 0, 26, 0, 27, 0, 28, 5, 33, 3, 0})   // evictions, purge
	f.Add([]byte{0, 0, 2, 0, 8, 0, 1, 8, 5, 0, 3, 0})               // oversize re-store, no-op purge
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		cfg := diskTestConfig(t.TempDir())
		cfg.DiskMaxBytes = 1 << 40     // no disk-side evictions
		cfg.stateSaveEvery = time.Hour // write-behind only when the test asks
		cfg.DiskFsync = diskstore.FsyncAlways
		s := fuzzServer(t, cfg)
		m := newDocModel(cfg, cap(s.spillq))
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%9, data[i+1]
			url := fuzzURLs[int(arg&7)%len(fuzzURLs)]
			size := fuzzSizes[arg>>3&3]
			step := fmt.Sprintf("op %d (%d %s %d)", i/2, op, url, size)
			switch op {
			case 0, 1, 8:
				v := m.version(url)
				if op == 1 || v == 0 {
					v = m.bump(url)
				}
				if op == 8 {
					size = cfg.CacheCapacity + 1
				}
				body := fuzzBody(url, v, size)
				sum := md5.Sum(body)
				s.storeDoc(url, body, docMeta{version: v, size: size, digest: sum[:]})
				m.store(url, v, size)
			case 2:
				w := httptest.NewRecorder()
				_, served := s.serveLocal(w, nil, url, -1)
				want, ok := m.hit(url)
				if served != ok {
					t.Fatalf("%s: served=%v, model says %v", step, served, ok)
				}
				if served {
					r := docSnapshot(s, url)
					sum := md5.Sum(w.Body.Bytes())
					if !bytes.Equal(w.Body.Bytes(), want) || r == nil || !bytes.Equal(sum[:], r.meta.digest) {
						t.Fatalf("%s: served a body that is not the record's", step)
					}
				}
			case 3:
				pump(s)
				m.pump(false)
			case 4:
				s.ds.Delete(url)
				m.lose(url)
			case 5:
				v := m.version(url)
				if arg&32 != 0 {
					v++
				}
				s.purgeStale(url, v)
				m.purge(url, v)
			case 6:
				s.writeBehind()
				m.writeBehind(t, s)
			case 7:
				s.ds.Abandon()
				pump(s) // every queued spill now fails
				m.pump(true)
				m.check(t, s, step+" crash")
				s = fuzzServer(t, cfg)
				m.restore(t, s)
			}
			m.check(t, s, step)
		}
	})
}

var (
	fuzzURLs  = []string{"http://o/a", "http://o/b", "http://o/c", "http://o/d", "http://o/e", "http://o/f"}
	fuzzSizes = [4]int64{500, 9_000, 30_000, 50_000} // the last exceeds the 40 000-byte memory tier
)

func fuzzBody(url string, version, size int64) []byte {
	unit := fmt.Sprintf("%s@%d ", url, version)
	return bytes.Repeat([]byte(unit), int(size)/len(unit)+1)[:size]
}

// fuzzServer is docsServer for a fuzz iteration: the spill worker and the
// write-behind tick are stopped, so queued disk operations run only in pump.
func fuzzServer(t *testing.T, cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.diskOnce.Do(func() { close(s.stopDisk) })
	s.diskWG.Wait()
	t.Cleanup(func() { s.Close() })
	return s
}

// docModel is the reference model: the docstore transition table over an
// LRU cache of capacity bytes whose memory tier (memCap bytes) is an LRU
// list of its own, the spill queue, and the disk store's key → version.
type docModel struct {
	capacity, memCap int64
	qcap             int
	recs             map[string]*modelRec
	lru, mem         []string         // least recently used first
	size, memSize    map[string]int64 // charge in the cache and in the memory tier
	demoted          []string
	q                []spillOp
	disk             map[string]int64
	lost             map[string]bool // deleted from disk behind the proxy's back
	written          map[string]bool // url@version: every version the disk store was given
	versions         map[string]int64
}

type modelRec struct {
	version, size int64
	state         docState
	durable       bool
	hits          int
}

func newDocModel(cfg Config, qcap int) *docModel {
	return &docModel{
		capacity: cfg.CacheCapacity, memCap: int64(float64(cfg.CacheCapacity) * cfg.MemFraction), qcap: qcap,
		recs: map[string]*modelRec{}, size: map[string]int64{}, memSize: map[string]int64{},
		disk: map[string]int64{}, lost: map[string]bool{}, written: map[string]bool{}, versions: map[string]int64{},
	}
}

func (m *docModel) version(url string) int64 {
	if r := m.recs[url]; r != nil {
		return r.version
	}
	return m.versions[url]
}

func (m *docModel) bump(url string) int64 {
	m.versions[url] = max(m.versions[url], m.version(url)) + 1
	return m.versions[url]
}

func used(keys []string, size map[string]int64) (n int64) {
	for _, k := range keys {
		n += size[k]
	}
	return n
}

// put is the cache's Put: evictions reset their records, demotions wait
// for drain.
func (m *docModel) put(url string, size int64) bool {
	if size > m.capacity {
		return false
	}
	m.lru = append(slices.DeleteFunc(m.lru, func(k string) bool { return k == url }), url)
	m.size[url] = size
	for used(m.lru, m.size) > m.capacity {
		victim := m.lru[0]
		if victim == url {
			victim = m.lru[1]
		}
		m.uncache(victim)
		*m.recs[victim] = modelRec{version: m.recs[victim].version, size: m.recs[victim].size}
		m.queue(spillOp{key: victim, del: true})
	}
	m.touchMem(url)
	return true
}

func (m *docModel) touchMem(url string) {
	if m.size[url] > m.memCap {
		return
	}
	m.mem = append(slices.DeleteFunc(m.mem, func(k string) bool { return k == url }), url)
	m.memSize[url] = m.size[url]
	for used(m.mem, m.memSize) > m.memCap {
		victim := m.mem[0]
		if victim == url {
			victim = m.mem[1]
		}
		m.mem = slices.DeleteFunc(m.mem, func(k string) bool { return k == victim })
		m.demoted = append(m.demoted, victim)
	}
}

func (m *docModel) uncache(url string) {
	m.lru = slices.DeleteFunc(m.lru, func(k string) bool { return k == url })
	m.mem = slices.DeleteFunc(m.mem, func(k string) bool { return k == url })
}

func (m *docModel) queue(op spillOp) bool {
	if len(m.q) == m.qcap {
		return false
	}
	m.q = append(m.q, op)
	return true
}

func (m *docModel) shed(url string) {
	m.uncache(url)
	r := m.recs[url]
	*r = modelRec{version: r.version, size: r.size}
}

// drain is docstore's drain.
func (m *docModel) drain() {
	for _, key := range m.demoted {
		r := m.recs[key]
		if r == nil || r.state != docMemory {
			continue
		}
		admitted := r.hits >= spillMinHits
		r.hits = 0
		switch {
		case r.durable:
			r.state = docDisk
		case !admitted:
			m.shed(key)
		case m.queue(spillOp{key: key, from: docStaged}):
			r.state = docStaged
		default:
			m.shed(key)
		}
	}
	m.demoted = m.demoted[:0]
}

func (m *docModel) store(url string, version, size int64) {
	r := m.recs[url]
	if r == nil {
		r = &modelRec{}
		m.recs[url] = r
	}
	r.version, r.size, r.durable = version, size, false
	if m.put(url, size) {
		r.state = docMemory
		r.hits++
	} else if r.state != docMetaOnly {
		m.shed(url)
	}
	m.drain()
}

// hit is serveLocal: the body it serves, if any.
func (m *docModel) hit(url string) ([]byte, bool) {
	r := m.recs[url]
	if r == nil || r.state == docMetaOnly {
		return nil, false
	}
	body := fuzzBody(url, r.version, r.size)
	switch {
	case r.state != docDisk:
		r.state = docMemory
		r.hits++
	case m.disk[url] != r.version:
		r.hits++
		r.durable = false
		m.shed(url)
		return nil, false
	default:
		if r.hits++; r.hits < spillMinHits {
			return body, true // streamed
		}
		r.state, r.durable = docMemory, true
	}
	m.put(url, r.size) // the reference; put and get agree for LRU
	m.drain()
	return body, true
}

// pump runs the spill queue; crashed: the disk store refuses every call.
func (m *docModel) pump(crashed bool) {
	for _, op := range m.q {
		r := m.recs[op.key]
		switch {
		case op.del && !crashed && (r == nil || !r.durable):
			delete(m.disk, op.key)
		case op.del || r == nil || r.state != op.from || r.durable:
		case crashed:
			if r.state == docStaged {
				m.shed(op.key)
			}
		default:
			m.disk[op.key] = r.version
			m.written[op.key+"@"+fmt.Sprint(r.version)] = true
			delete(m.lost, op.key)
			r.durable = true
			if r.state == docStaged {
				r.state = docDisk
			}
		}
	}
	m.q = m.q[:0]
}

func (m *docModel) lose(url string) {
	if _, ok := m.disk[url]; ok {
		delete(m.disk, url)
		m.lost[url] = true
	}
}

func (m *docModel) purge(url string, version int64) {
	if r := m.recs[url]; r != nil && r.version >= version {
		return
	}
	m.versions[url] = max(m.versions[url], m.version(url))
	delete(m.recs, url)
	m.uncache(url)
	m.queue(spillOp{key: url, del: true})
}

// writeBehind checks the write-behind ops the server just queued (their
// order follows map iteration) and adopts that order.
func (m *docModel) writeBehind(t *testing.T, s *Server) {
	var want, got []string
	for url, r := range m.recs {
		if r.state == docMemory && !r.durable && r.hits >= spillMinHits {
			want = append(want, url)
		}
	}
	for _, op := range queued(s)[len(m.q):] {
		got = append(got, op.key)
		m.q = append(m.q, op)
	}
	slices.Sort(want)
	slices.Sort(got)
	if len(m.q) < m.qcap && !slices.Equal(got, want) {
		t.Fatalf("write-behind queued %v, want %v", got, want)
	}
}

// queued lists s.spillq front to back, leaving it as it was.
func queued(s *Server) []spillOp {
	ops := make([]spillOp, len(s.spillq))
	for i := range ops {
		op := <-s.spillq
		s.spillq <- op
		ops[i] = spillOp{op.Key, op.Del, op.From}
	}
	return ops
}

// restore checks that the restarted server's journal replay re-seated only
// versions the disk store was once given (a crash may lose the journal's
// unsynced tail, so a deleted copy can come back), then adopts the
// replayed state.
func (m *docModel) restore(t *testing.T, s *Server) {
	m.recs, m.lru, m.mem, m.q = map[string]*modelRec{}, nil, nil, nil
	clear(m.size)
	clear(m.memSize)
	clear(m.lost)
	for url, v := range s.docs.Views() {
		r := recordOf(v)
		if r.state != docMetaOnly && !m.written[url+"@"+fmt.Sprint(r.meta.version)] {
			t.Fatalf("restored %s v%d, which the disk store was never given", url, r.meta.version)
		}
		m.recs[url] = &modelRec{version: r.meta.version, size: r.meta.size, state: r.state, durable: r.durable}
	}
	for _, k := range s.docs.Keys() {
		m.lru = append(m.lru, k)
		m.size[k] = m.recs[k].size
	}
	clear(m.disk)
	for _, e := range s.ds.Entries() {
		m.disk[e.Key] = e.Meta.Version
	}
}

// check compares the server with the model and asserts the invariants.
func (m *docModel) check(t *testing.T, s *Server, step string) {
	t.Helper()
	views, keys := s.docs.Views(), s.docs.Keys()
	resident := 0
	for _, url := range fuzzURLs {
		v, ok := views[url]
		mr := m.recs[url]
		if ok != (mr != nil) {
			t.Fatalf("%s: %s record exists=%v, model says %v", step, url, ok, mr != nil)
		}
		if !ok {
			continue
		}
		r := recordOf(v)
		got := modelRec{version: r.meta.version, size: r.meta.size, state: r.state, durable: r.durable, hits: r.hits}
		if got != *mr {
			t.Fatalf("%s: %s record %+v, model says %+v", step, url, got, *mr)
		}
		if ok := slices.Contains(keys, url); ok != (r.state != docMetaOnly) {
			t.Fatalf("%s: %s in cache=%v but state %d", step, url, ok, r.state)
		}
		if r.state != docMetaOnly {
			resident++
		}
		if dm, ok := s.ds.Meta(url); (r.durable || r.state == docDisk) && !m.lost[url] && (!ok || dm.Version != r.meta.version) {
			t.Fatalf("%s: %s durable at v%d, disk store holds (v%d, %v)", step, url, r.meta.version, dm.Version, ok)
		}
	}
	if n := len(keys); n != resident {
		t.Fatalf("%s: cache holds %d keys, %d records are resident", step, n, resident)
	}
	if !slices.Equal(keys, m.lru) {
		t.Fatalf("%s: cache order %v, model %v", step, keys, m.lru)
	}
	if q := queued(s); !slices.Equal(q, m.q) {
		t.Fatalf("%s: spill queue %v, model %v", step, q, m.q)
	}
}
