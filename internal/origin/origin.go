// Package origin implements a synthetic origin web server for the live
// browsers-aware proxy system: deterministic document bodies generated from
// the request path and a per-document version counter, so tests and demos
// can exercise fetches, re-fetches and origin-side modification without any
// external network. It stands in for "the web server" of the paper's Figure
// 1 (the repository cannot depend on the real 2001 web).
package origin

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"baps/internal/obs"
)

// Server generates documents. Create with New, expose via Handler, and
// typically serve with net/http/httptest in tests or cmd/bapsorigin in
// deployments.
type Server struct {
	seed  uint64
	start time.Time

	mu          sync.RWMutex
	versions    map[string]int64
	modTimes    map[string]time.Time
	fetches     int64
	notModified int64

	obs        *obs.Registry
	bytesOut   *obs.Counter
	modifies   *obs.Counter
	badRequest *obs.Counter
	logger     *slog.Logger
}

// New creates a server whose document contents derive from seed.
func New(seed int64) *Server {
	s := &Server{
		seed:     uint64(seed),
		start:    time.Now(),
		versions: make(map[string]int64),
		modTimes: make(map[string]time.Time),
	}
	reg := obs.NewRegistry()
	s.obs = reg
	reg.CounterFunc("baps_origin_fetches_total",
		"Document requests served by the origin.", func() int64 { return s.Fetches() })
	s.bytesOut = reg.Counter("baps_origin_bytes_total",
		"Document bytes served by the origin.")
	s.modifies = reg.Counter("baps_origin_modifies_total",
		"Origin-side document modifications (version bumps).")
	s.badRequest = reg.Counter("baps_origin_bad_requests_total",
		"Requests rejected with a 4xx status.")
	reg.CounterFunc("baps_origin_not_modified_total",
		"Conditional requests answered 304 Not Modified (no body served).",
		func() int64 { return s.NotModified() })
	reg.GaugeFunc("baps_origin_modified_docs",
		"Documents whose version has been bumped at least once.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.versions))
		})
	return s
}

// SetLogger installs a structured logger for request-summary lines.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// Obs exposes the origin's metrics registry.
func (s *Server) Obs() *obs.Registry { return s.obs }

// Handler returns the HTTP handler:
//
//	GET  /...                 → the document at that path (any path serves)
//	POST /admin/modify?path=P → bump P's version (origin-side modification)
//	GET  /admin/version?path=P → current version of P
//	GET  /admin/stats         → fetch counter
//	GET  /metrics             → Prometheus text exposition
//
// Document size can be forced with ?size=N (bytes); otherwise it derives
// deterministically from the path (1–64 KB).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/modify", s.handleModify)
	mux.HandleFunc("/admin/version", s.handleVersion)
	mux.HandleFunc("/admin/stats", s.handleStats)
	mux.Handle("/metrics", s.obs.Handler())
	mux.HandleFunc("/", s.handleDoc)
	return mux
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.badRequest.Inc()
		http.Error(w, "origin: GET only", http.StatusMethodNotAllowed)
		return
	}
	path := r.URL.Path
	s.mu.Lock()
	version := s.versions[path]
	lastMod := s.lastModLocked(path)
	// Conditional GET (revalidation): the strong validator is the ETag
	// ("v<version>"); If-Modified-Since is honored at HTTP's one-second
	// date resolution for clients that only kept the date.
	etag := fmt.Sprintf("%q", "v"+strconv.FormatInt(version, 10))
	if notModified(r, etag, lastMod) {
		s.notModified++
		s.mu.Unlock()
		h := w.Header()
		h.Set("ETag", etag)
		h.Set("Last-Modified", lastMod.UTC().Format(http.TimeFormat))
		h.Set("X-Origin-Version", strconv.FormatInt(version, 10))
		w.WriteHeader(http.StatusNotModified)
		if s.logger != nil {
			s.logger.Info("not-modified", "path", path, "version", version)
		}
		return
	}
	s.fetches++
	s.mu.Unlock()

	size := s.sizeFor(path, version)
	if q := r.URL.Query().Get("size"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n <= 0 || n > 64<<20 {
			s.badRequest.Inc()
			http.Error(w, "origin: bad size", http.StatusBadRequest)
			return
		}
		size = n
	}
	body := s.Body(path, version, size)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("X-Origin-Version", strconv.FormatInt(version, 10))
	w.Header().Set("ETag", etag)
	w.Header().Set("Last-Modified", lastMod.UTC().Format(http.TimeFormat))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	s.bytesOut.Add(size)
	if s.logger != nil {
		s.logger.Info("serve", "path", path, "version", version, "bytes", size)
	}
}

func (s *Server) handleModify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.badRequest.Inc()
		http.Error(w, "origin: POST only", http.StatusMethodNotAllowed)
		return
	}
	path := r.URL.Query().Get("path")
	if path == "" {
		s.badRequest.Inc()
		http.Error(w, "origin: missing path", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.versions[path]++
	v := s.versions[path]
	s.modTimes[path] = time.Now()
	s.mu.Unlock()
	s.modifies.Inc()
	if s.logger != nil {
		s.logger.Info("modify", "path", path, "version", v)
	}
	fmt.Fprintf(w, "%d\n", v)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	s.mu.RLock()
	v := s.versions[path]
	s.mu.RUnlock()
	fmt.Fprintf(w, "%d\n", v)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	f := s.fetches
	s.mu.RUnlock()
	fmt.Fprintf(w, "{\"fetches\":%d}\n", f)
}

// Fetches reports how many document requests the origin served.
func (s *Server) Fetches() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fetches
}

// Modify bumps a document's version directly (in-process convenience).
func (s *Server) Modify(path string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[path]++
	s.modTimes[path] = time.Now()
	s.modifies.Inc()
	return s.versions[path]
}

// NotModified reports how many conditional requests were answered 304.
func (s *Server) NotModified() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.notModified
}

// LastModified reports a document's modification time (server start for
// never-modified paths).
func (s *Server) LastModified(path string) time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastModLocked(path)
}

// lastModLocked reads a path's modification time with s.mu held.
func (s *Server) lastModLocked(path string) time.Time {
	if t, ok := s.modTimes[path]; ok {
		return t
	}
	return s.start
}

// notModified decides the conditional-GET outcome. The ETag comparison is
// exact (strong validator); the If-Modified-Since comparison truncates to
// seconds, matching the HTTP-date wire resolution.
func notModified(r *http.Request, etag string, lastMod time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		return inm == etag || inm == "*"
	}
	ims := r.Header.Get("If-Modified-Since")
	if ims == "" {
		return false
	}
	since, err := http.ParseTime(ims)
	if err != nil {
		return false
	}
	return !lastMod.Truncate(time.Second).After(since)
}

// Version reports a document's current version.
func (s *Server) Version(path string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versions[path]
}

// sizeFor derives the default body size (1–64 KB) from the path.
func (s *Server) sizeFor(path string, version int64) int64 {
	h := s.seed
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 0x100000001B3
	}
	h ^= uint64(version) * 0x9E3779B97F4A7C15
	h = mix(h)
	return int64(1024 + h%(63*1024))
}

// Body deterministically generates a document's bytes for (path, version,
// size). The live proxy and tests use it to predict exact content. Each
// 8-byte block is one mix word stored little-endian; a short tail takes the
// low bytes of one more word.
func (s *Server) Body(path string, version, size int64) []byte {
	state := s.seed ^ mix(uint64(version)+0x1234)
	for i := 0; i < len(path); i++ {
		state = (state ^ uint64(path[i])) * 0x100000001B3
	}
	body := make([]byte, size)
	i := 0
	for ; i+8 <= len(body); i += 8 {
		state += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(body[i:], mix(state))
	}
	if i < len(body) {
		state += 0x9E3779B97F4A7C15
		word := mix(state)
		for j := range body[i:] {
			body[i+j] = byte(word >> (8 * j))
		}
	}
	return body
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
