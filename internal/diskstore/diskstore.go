// Package diskstore is the proxy's crash-safe on-disk document tier: a
// log-structured store of document bodies in segmented append-only data
// files, indexed by an append-only journal of CRC-framed metadata records.
//
// Layout inside the data directory:
//
//	seg-00000001.dat   append-only body records: [magic][len][crc32][body]
//	seg-00000002.dat   ...
//	journal.wal        append-only index records (see journal.go)
//
// The design follows the write-ahead-log discipline of log-structured
// caches: a Put appends the body to the active segment, then appends a put
// record (key, segment, offset, length, meta) to the journal. Nothing is
// ever updated in place, so a crash at any byte boundary leaves at worst a
// torn tail, which replay detects by CRC and truncates. Deletes and
// recency touches are journal records too; segment space is reclaimed when
// a whole segment holds no live bodies (log-structured reclamation) and the
// journal itself is rewritten compactly once dead records dominate it.
//
// Durability is tunable (Config.Fsync): every Put, on a background
// interval, or never (the OS page cache decides). Replay after a crash
// recovers exactly the records that reached the disk; the store is
// consistent at every prefix of the journal, so any fsync policy yields a
// usable (if slightly stale) store. A failed flush or fsync is never silent:
// Put (under FsyncAlways), SaveState and Close return it, and every failure,
// the background flusher's included, is counted on MetricsHooks.SyncError.
//
// The store is safe for concurrent use. Body reads go through
// internal/bufpool tiers where the caller streams rather than retains.
package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FsyncPolicy selects when the store forces its writes to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval flushes and syncs on a background interval (default).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs the segment and journal after every Put.
	FsyncAlways
	// FsyncNever never calls fsync; the OS page cache decides. Replay
	// still recovers whatever reached the disk.
	FsyncNever
)

// String names the policy (flag values for -fsync).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy converts a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("diskstore: unknown fsync policy %q (want interval, always, or never)", s)
}

// Meta is the document metadata persisted alongside each body — everything
// the proxy needs to re-seat a cache entry without refetching the document.
type Meta struct {
	Version int64
	Size    int64
	Digest  []byte // MD5
}

// Entry is one live document reported by replay, in journal (roughly
// recency) order.
type Entry struct {
	Key   string
	Meta  Meta
	Stamp int64 // unix nanos of the last journaled touch/put
}

// The store's fixed parameters.
const (
	// fsyncEvery is the background flush interval: an fsync under
	// FsyncInterval, a journal buffer flush otherwise.
	fsyncEvery = 100 * time.Millisecond
	// segmentMaxBytes rotates the active segment past this size.
	segmentMaxBytes = 64 << 20
	// sweepEvery is the retention sweep interval.
	sweepEvery = 2 * time.Second
	// touchEvery throttles journaled recency touches per key. In-memory
	// recency is always exact; the journal records at most one touch per
	// key per interval, bounding journal growth under read-heavy load at
	// the cost of that much recency precision across a crash.
	touchEvery = 5 * time.Second
)

// Config parameterizes Open.
type Config struct {
	// MaxBytes bounds the live bytes held on disk; the retention sweep
	// evicts least-recently-touched documents beyond it. <=0 means 1 GiB.
	MaxBytes int64
	// Retention drops documents not touched for this long, regardless of
	// space (0 disables age-based retention).
	Retention time.Duration
	// Fsync selects the durability policy.
	Fsync FsyncPolicy
	// OnEvict, when non-nil, observes every document the retention sweep
	// drops (not explicit Deletes), so the owning cache can drop its
	// accounting entry. Called without internal locks held.
	OnEvict func(key string)
	// Metrics, when non-nil, receives store event callbacks.
	Metrics MetricsHooks

	// quiet, set by tests that drive Sync and Sweep themselves, starts no
	// background flusher or sweep.
	quiet bool
}

// MetricsHooks lets the owner count store events on its own registry
// without this package importing it.
type MetricsHooks struct {
	Write         func() // one body spilled
	Read          func() // one body read back
	CorruptRecord func() // one journal or body record dropped for CRC/framing
	Eviction      func() // one document evicted by retention
	SyncError     func() // one flush or fsync failed: what it covered may not be durable
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Docs          int
	LiveBytes     int64 // body bytes of live documents
	SegmentBytes  int64 // total bytes across segment files (live + dead)
	Segments      int
	JournalBytes  int64
	Restored      int   // documents recovered by the last Open
	CorruptTail   bool  // last Open truncated a torn journal tail
	CorruptDrops  int64 // records dropped for CRC/framing damage (lifetime)
	Evictions     int64 // retention evictions (lifetime)
	ReplayElapsed time.Duration
}

// entry is the in-memory index record for one live key.
type entry struct {
	seg     uint32
	off     int64
	length  int64
	meta    Meta
	stamp   int64 // unix nanos, exact
	touched int64 // unix nanos of the last journaled touch
}

// Store is a crash-safe key → body store. See the package comment.
type Store struct {
	dir string
	cfg Config

	mu      sync.Mutex
	index   map[string]*entry
	live    int64            // live body bytes
	segLive map[uint32]int64 // live body bytes per segment
	segs    map[uint32]*segment
	active  *segment
	nextSeg uint32
	journal *journal
	state   []byte // last SaveState blob (replayed or written)

	corruptDrops int64
	evictions    int64
	restored     int
	corruptTail  bool
	replayDur    time.Duration

	stop     chan struct{}
	stopOnce sync.Once
	bg       sync.WaitGroup
	closed   bool
}

// ErrCorrupt reports a body whose stored CRC no longer matches — the entry
// is dropped and the caller should treat the key as a miss.
var ErrCorrupt = errors.New("diskstore: corrupt record")

// ErrNotFound reports a key with no live entry.
var ErrNotFound = errors.New("diskstore: not found")

// Open opens (creating if needed) the store in dir and replays the journal.
func Open(dir string, cfg Config) (*Store, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:     dir,
		cfg:     cfg,
		index:   make(map[string]*entry),
		segLive: make(map[uint32]int64),
		segs:    make(map[uint32]*segment),
		stop:    make(chan struct{}),
	}
	start := time.Now()
	if err := s.loadSegments(); err != nil {
		return nil, err
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	s.replayDur = time.Since(start)
	s.restored = len(s.index)
	// A fresh active segment per process: never append to a tail that may
	// be torn from the previous crash.
	if err := s.rotateSegment(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.reclaimDeadSegments()
	if !cfg.quiet {
		s.bg.Add(1)
		go s.background()
	}
	return s, nil
}

// loadSegments discovers existing segment files. Zero-length segments (a
// crash between create and first append) are deleted and ignored.
func (s *Store) loadSegments() error {
	names, err := filepath.Glob(filepath.Join(s.dir, segGlob))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		id, ok := segIDFromName(filepath.Base(name))
		if !ok {
			continue
		}
		fi, err := os.Stat(name)
		if err != nil {
			continue
		}
		if fi.Size() == 0 {
			os.Remove(name)
			continue
		}
		seg, err := openSegment(name, id)
		if err != nil {
			// Unreadable segment: its entries will be dropped during
			// replay validation.
			continue
		}
		s.segs[id] = seg
		if id >= s.nextSeg {
			s.nextSeg = id + 1
		}
	}
	return nil
}

// replayJournal rebuilds the index from the journal, tolerating a torn
// tail, and validates every surviving entry against the segment files.
func (s *Store) replayJournal() error {
	j, res, err := openJournal(filepath.Join(s.dir, journalName))
	if err != nil {
		return err
	}
	s.journal = j
	s.corruptTail = res.truncatedTail
	s.corruptDrops += res.corruptRecords
	if res.corruptRecords > 0 && s.cfg.Metrics.CorruptRecord != nil {
		for i := int64(0); i < res.corruptRecords; i++ {
			s.cfg.Metrics.CorruptRecord()
		}
	}
	for _, rec := range res.records {
		switch rec.kind {
		case jPut:
			s.applyPut(rec)
		case jDel:
			s.applyDel(rec.key)
		case jTouch:
			if e := s.index[rec.key]; e != nil {
				e.stamp = rec.stamp
				e.touched = rec.stamp
			}
		case jState:
			s.state = rec.blob
		}
	}
	// Validate entries against the segment files that actually survived:
	// an entry pointing past a (torn) segment end, or into a missing
	// segment, is dropped rather than trusted.
	for key, e := range s.index {
		seg := s.segs[e.seg]
		if seg == nil || e.off+recordOverhead+e.length > seg.size {
			s.dropEntry(key, e)
			s.corruptDrops++
			if s.cfg.Metrics.CorruptRecord != nil {
				s.cfg.Metrics.CorruptRecord()
			}
		}
	}
	// Rewrite the journal compactly when replay found damage or when dead
	// records dominate (more than ~8× the live set).
	if s.corruptTail || res.corruptRecords > 0 || j.size > 1<<20 && j.size > 8*s.liveJournalEstimate() {
		if err := s.rewriteJournalLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) applyPut(rec record) {
	if old := s.index[rec.key]; old != nil {
		s.live -= old.length
		s.segLive[old.seg] -= old.length
	}
	e := &entry{
		seg:    rec.seg,
		off:    rec.off,
		length: rec.length,
		meta:   Meta{Version: rec.version, Size: rec.length, Digest: rec.digest},
		stamp:  rec.stamp,
	}
	e.touched = rec.stamp
	s.index[rec.key] = e
	s.live += e.length
	s.segLive[e.seg] += e.length
}

func (s *Store) applyDel(key string) {
	if e := s.index[key]; e != nil {
		s.dropEntry(key, e)
	}
}

// dropEntry removes key's index entry and live accounting (caller holds mu
// or is in single-threaded replay).
func (s *Store) dropEntry(key string, e *entry) {
	s.live -= e.length
	s.segLive[e.seg] -= e.length
	delete(s.index, key)
}

// liveJournalEstimate approximates the journal bytes a compact rewrite of
// the live set would need.
func (s *Store) liveJournalEstimate() int64 {
	var n int64
	for key, e := range s.index {
		n += int64(putRecordSize(key, e.meta))
	}
	n += int64(len(s.state)) + recHeaderSize
	return n
}

// Put spills a document body to disk: body bytes to the active segment,
// then a put record to the journal. The caller keeps ownership of body.
func (s *Store) Put(key string, body []byte, meta Meta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("diskstore: closed")
	}
	if s.active.size+recordOverhead+int64(len(body)) > segmentMaxBytes && s.active.size > 0 {
		if err := s.rotateSegment(); err != nil {
			return err
		}
	}
	off, err := s.active.append(body)
	if err != nil {
		return err
	}
	// Under FsyncAlways the body is durable before any record points at it,
	// and the document is indexed only once its record is durable too: a
	// failed sync fails the Put and leaves nothing a restore would serve.
	always := s.cfg.Fsync == FsyncAlways
	if always {
		if err := s.active.sync(); err != nil {
			return s.syncFailed(err)
		}
	}
	now := time.Now().UnixNano()
	meta.Size = int64(len(body))
	rec := record{
		kind: jPut, key: key,
		seg: s.active.id, off: off, length: int64(len(body)),
		version: meta.Version, stamp: now,
		digest: meta.Digest,
	}
	size := s.journal.size
	if err := s.journal.append(rec); err != nil {
		return err
	}
	if always {
		if err := s.journal.sync(); err != nil {
			s.journal.abandonTail(size)
			return s.syncFailed(err)
		}
	}
	s.applyPut(rec)
	if s.cfg.Metrics.Write != nil {
		s.cfg.Metrics.Write()
	}
	return nil
}

// Get reads a body back, verifying its CRC, and journals a (throttled)
// recency touch. A corrupt body drops the entry and reports ErrCorrupt.
func (s *Store) Get(key string) ([]byte, Meta, error) {
	s.mu.Lock()
	e := s.index[key]
	if e == nil {
		s.mu.Unlock()
		return nil, Meta{}, ErrNotFound
	}
	seg := s.segOf(e)
	loc := *e
	s.touchLocked(key, e)
	s.mu.Unlock()
	if seg == nil {
		return nil, Meta{}, ErrNotFound
	}
	body, err := seg.read(loc.off, loc.length)
	if err != nil {
		s.discardCorrupt(key)
		return nil, Meta{}, ErrCorrupt
	}
	if s.cfg.Metrics.Read != nil {
		s.cfg.Metrics.Read()
	}
	return body, loc.meta, nil
}

// ReadTo streams a body straight into w through a pooled buffer (no
// per-read body allocation), for serve paths that do not retain the bytes.
// It reports the body length written.
func (s *Store) ReadTo(w io.Writer, key string) (int64, Meta, error) {
	s.mu.Lock()
	e := s.index[key]
	if e == nil {
		s.mu.Unlock()
		return 0, Meta{}, ErrNotFound
	}
	seg := s.segOf(e)
	loc := *e
	s.touchLocked(key, e)
	s.mu.Unlock()
	if seg == nil {
		return 0, Meta{}, ErrNotFound
	}
	n, err := seg.readTo(w, loc.off, loc.length)
	if err != nil {
		if errors.Is(err, errBadRecord) {
			s.discardCorrupt(key)
			return n, Meta{}, ErrCorrupt
		}
		return n, Meta{}, err
	}
	if s.cfg.Metrics.Read != nil {
		s.cfg.Metrics.Read()
	}
	return n, loc.meta, nil
}

// Meta reports a live entry's metadata without touching recency.
func (s *Store) Meta(key string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.index[key]; e != nil {
		return e.meta, true
	}
	return Meta{}, false
}

// Has reports whether key has a live entry.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[key] != nil
}

// Delete drops key's entry (journaled; space reclaimed when its segment
// dies). Missing keys are a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.index[key] == nil {
		return nil
	}
	if err := s.journal.append(record{kind: jDel, key: key}); err != nil {
		return err
	}
	s.applyDel(key)
	return nil
}

// touchLocked refreshes key's in-memory recency, journaling the touch at
// most once per touchEvery.
func (s *Store) touchLocked(key string, e *entry) {
	now := time.Now().UnixNano()
	e.stamp = now
	if now-e.touched < int64(touchEvery) {
		return
	}
	e.touched = now
	s.journal.append(record{kind: jTouch, key: key, stamp: now})
}

// discardCorrupt drops a key whose body failed its CRC.
func (s *Store) discardCorrupt(key string) {
	s.mu.Lock()
	if e := s.index[key]; e != nil {
		s.journal.append(record{kind: jDel, key: key})
		s.dropEntry(key, e)
		s.corruptDrops++
	}
	s.mu.Unlock()
	if s.cfg.Metrics.CorruptRecord != nil {
		s.cfg.Metrics.CorruptRecord()
	}
}

// syncFailed counts a failed flush or fsync on the SyncError hook and
// returns it.
func (s *Store) syncFailed(err error) error {
	if s.cfg.Metrics.SyncError != nil {
		s.cfg.Metrics.SyncError()
	}
	return fmt.Errorf("diskstore: sync: %w", err)
}

// segOf resolves an entry's segment handle (active or archived).
func (s *Store) segOf(e *entry) *segment {
	if s.active != nil && e.seg == s.active.id {
		return s.active
	}
	return s.segs[e.seg]
}

// rotateSegment opens a fresh active segment (caller holds mu).
func (s *Store) rotateSegment() error {
	id := s.nextSeg
	s.nextSeg++
	seg, err := createSegment(filepath.Join(s.dir, segName(id)), id)
	if err != nil {
		return err
	}
	if s.active != nil {
		s.segs[s.active.id] = s.active
	}
	s.active = seg
	s.segs[id] = seg
	return nil
}

// SaveState journals an opaque owner-state blob (counters, client table,
// generations) and, under any fsync policy except never, forces it to disk.
// The last blob that reached the disk is returned by State after replay.
func (s *Store) SaveState(blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("diskstore: closed")
	}
	b := make([]byte, len(blob))
	copy(b, blob)
	s.state = b
	if err := s.journal.append(record{kind: jState, blob: b}); err != nil {
		return err
	}
	if s.cfg.Fsync != FsyncNever {
		if err := s.journal.sync(); err != nil {
			return s.syncFailed(err)
		}
	}
	return nil
}

// State returns the most recent state blob recovered by replay or written
// by SaveState (nil when none).
func (s *Store) State() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Entries lists the live documents ordered by ascending recency stamp (the
// first entry is the coldest), for re-seating an LRU skeleton on restart.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.index))
	for key, e := range s.index {
		out = append(out, Entry{Key: key, Meta: e.meta, Stamp: e.stamp})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stamp < out[j].Stamp })
	return out
}

// Len reports the live document count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Used reports the live body bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// StatsSnapshot summarizes the store.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Docs:          len(s.index),
		LiveBytes:     s.live,
		Segments:      len(s.segs),
		JournalBytes:  s.journal.size,
		Restored:      s.restored,
		CorruptTail:   s.corruptTail,
		CorruptDrops:  s.corruptDrops,
		Evictions:     s.evictions,
		ReplayElapsed: s.replayDur,
	}
	for _, seg := range s.segs {
		st.SegmentBytes += seg.size
	}
	return st
}

// background runs the interval-fsync flusher and the retention sweep.
func (s *Store) background() {
	defer s.bg.Done()
	flush := time.NewTicker(fsyncEvery)
	sweep := time.NewTicker(sweepEvery)
	defer flush.Stop()
	defer sweep.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-flush.C:
			s.mu.Lock()
			if !s.closed {
				var err error
				if s.cfg.Fsync == FsyncInterval {
					// Bodies first: a durable record must point at
					// durable bytes.
					err = errors.Join(s.active.sync(), s.journal.sync())
				} else {
					err = s.journal.flush()
				}
				if err != nil {
					s.syncFailed(err)
				}
			}
			s.mu.Unlock()
		case <-sweep.C:
			s.sweep()
		}
	}
}

// Sweep runs one retention pass synchronously (exposed for tests; the
// background goroutine calls it every sweepEvery).
func (s *Store) Sweep() { s.sweep() }

// sweep enforces MaxBytes (LRU by journaled-or-live stamp) and Retention
// (age), reclaims dead segments, and compacts a bloated journal.
func (s *Store) sweep() {
	type victim struct {
		key   string
		stamp int64
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	var evicted []string
	if s.live > s.cfg.MaxBytes || s.cfg.Retention > 0 {
		all := make([]victim, 0, len(s.index))
		cutoff := int64(0)
		if s.cfg.Retention > 0 {
			cutoff = time.Now().Add(-s.cfg.Retention).UnixNano()
		}
		for key, e := range s.index {
			all = append(all, victim{key, e.stamp})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })
		for _, v := range all {
			e := s.index[v.key]
			if e == nil {
				continue
			}
			// all is sorted by ascending stamp, so once neither pressure
			// applies, no later entry can be a victim either.
			if s.live <= s.cfg.MaxBytes && (cutoff == 0 || v.stamp >= cutoff) {
				break
			}
			s.journal.append(record{kind: jDel, key: v.key})
			s.dropEntry(v.key, e)
			s.evictions++
			evicted = append(evicted, v.key)
		}
	}
	s.reclaimDeadSegments()
	if s.journal.size > 1<<20 && s.journal.size > 8*s.liveJournalEstimate() {
		s.rewriteJournalLocked()
	}
	s.mu.Unlock()
	for _, key := range evicted {
		if s.cfg.Metrics.Eviction != nil {
			s.cfg.Metrics.Eviction()
		}
		if s.cfg.OnEvict != nil {
			s.cfg.OnEvict(key)
		}
	}
}

// reclaimDeadSegments unlinks archived segments with no live bytes (caller
// holds mu).
func (s *Store) reclaimDeadSegments() {
	for id, seg := range s.segs {
		if s.active != nil && id == s.active.id {
			continue
		}
		if s.segLive[id] > 0 {
			continue
		}
		seg.close()
		os.Remove(seg.path)
		delete(s.segs, id)
		delete(s.segLive, id)
	}
}

// rewriteJournalLocked replaces the journal with a compact one holding one
// put record per live entry plus the latest state blob (caller holds mu).
func (s *Store) rewriteJournalLocked() error {
	path := filepath.Join(s.dir, journalName)
	nj, err := rewriteJournal(path, func(emit func(record) error) error {
		for key, e := range s.index {
			rec := record{
				kind: jPut, key: key,
				seg: e.seg, off: e.off, length: e.length,
				version: e.meta.Version, stamp: e.stamp,
				digest: e.meta.Digest,
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
		if s.state != nil {
			return emit(record{kind: jState, blob: s.state})
		}
		return nil
	})
	if nj == nil {
		return err
	}
	s.journal.close()
	s.journal = nj
	if err != nil {
		return s.syncFailed(err)
	}
	return nil
}

// Close flushes and syncs everything and stops the background goroutine —
// the graceful-shutdown path. A failed flush or fsync is returned.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := errors.Join(s.active.sync(), s.journal.sync())
	s.closeFiles()
	if err != nil {
		return s.syncFailed(err)
	}
	return nil
}

// Abandon drops the store without flushing buffered writes — the crash
// path, used by tests and the kill/restart harness to model SIGKILL as
// faithfully as an in-process store can (whatever already reached the OS
// survives; buffered tails are torn).
func (s *Store) Abandon() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.closeFiles()
}

// closeFiles closes every file handle (caller holds mu or is in Open's
// error path).
func (s *Store) closeFiles() {
	if s.journal != nil {
		s.journal.close()
	}
	for _, seg := range s.segs {
		seg.close()
	}
	s.active = nil
}
