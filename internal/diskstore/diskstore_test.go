package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		MaxBytes: 1 << 20,
		Fsync:    FsyncNever,
		quiet:    true, // no background flush or sweep; tests drive both
	}
}

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func body(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 100+i%50)
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	defer s.Close()

	meta := Meta{Version: 7, Digest: []byte("0123456789abcdef")}
	if err := s.Put("k1", body(1), meta); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, m, err := s.Get("k1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, body(1)) {
		t.Fatalf("body mismatch")
	}
	if m.Version != 7 || !bytes.Equal(m.Digest, meta.Digest) {
		t.Fatalf("meta mismatch: %+v", m)
	}
	if m.Size != int64(len(body(1))) {
		t.Fatalf("size mismatch: %d", m.Size)
	}
	if _, _, err := s.Get("missing"); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// TestDecodePutSkipsLegacyWatermark: a put record written before watermarks
// became derived-on-demand carries the RSA signature in the trailing
// (now reserved) field; replay must still decode every other field.
func TestDecodePutSkipsLegacyWatermark(t *testing.T) {
	want := record{kind: jPut, key: "k", seg: 1, off: 2, length: 3, version: 4, stamp: 5, digest: []byte("0123456789abcdef")}
	p := encodePayload(want)
	sig := bytes.Repeat([]byte{0xAB}, 256)
	legacy := binary.LittleEndian.AppendUint16(p[:len(p)-2:len(p)-2], uint16(len(sig)))
	legacy = append(legacy, sig...)
	for name, payload := range map[string][]byte{"current": p, "legacy": legacy} {
		got, err := decodePayload(jPut, payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.key != want.key || got.seg != want.seg || got.off != want.off || got.length != want.length ||
			got.version != want.version || got.stamp != want.stamp || !bytes.Equal(got.digest, want.digest) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
	if _, err := decodePayload(jPut, legacy[:len(legacy)-1]); err == nil {
		t.Fatal("truncated legacy field accepted")
	}
}

func TestReadToStreams(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	defer s.Close()
	if err := s.Put("k", body(3), Meta{Version: 1}); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	n, m, err := s.ReadTo(&sink, "k")
	if err != nil {
		t.Fatalf("ReadTo: %v", err)
	}
	if n != int64(len(body(3))) || !bytes.Equal(sink.Bytes(), body(3)) || m.Version != 1 {
		t.Fatalf("stream mismatch: n=%d", n)
	}
}

func TestReplayRestoresAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), body(i), Meta{Version: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k3"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveState([]byte(`{"hello":"world"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	if got := s2.Len(); got != 19 {
		t.Fatalf("restored %d docs, want 19", got)
	}
	if string(s2.State()) != `{"hello":"world"}` {
		t.Fatalf("state blob lost: %q", s2.State())
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		got, m, err := s2.Get(key)
		if i == 3 {
			if err != ErrNotFound {
				t.Fatalf("deleted key came back: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if !bytes.Equal(got, body(i)) || m.Version != int64(i) {
			t.Fatalf("replayed %s mismatch", key)
		}
	}
}

func TestReplayAfterAbandonKeepsReachedRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s := mustOpen(t, dir, cfg)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), body(i), Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	// Force the journal to the OS, then write more that stays buffered.
	s.mu.Lock()
	s.journal.flush()
	s.mu.Unlock()
	for i := 10; i < 15; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), body(i), Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	s.Abandon() // crash: buffered journal tail is torn away

	s2 := mustOpen(t, dir, cfg)
	defer s2.Close()
	if got := s2.Len(); got < 10 || got >= 15 {
		t.Fatalf("restored %d docs, want [10,15)", got)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := s2.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("flushed record k%d lost: %v", i, err)
		}
	}
}

func TestRetentionSweepEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.MaxBytes = 600 // a few ~100-byte bodies
	var evicted []string
	cfg.OnEvict = func(key string) { evicted = append(evicted, key) }
	s := mustOpen(t, dir, cfg)
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), body(i), Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch an old key so it survives over fresher-but-untouched ones.
	if _, _, err := s.Get("k0"); err != nil {
		t.Fatal(err)
	}
	s.Sweep()
	if s.Used() > 600 {
		t.Fatalf("sweep left %d bytes, budget 600", s.Used())
	}
	if !s.Has("k0") {
		t.Fatalf("recently touched key evicted")
	}
	if len(evicted) == 0 {
		t.Fatalf("no evictions observed")
	}
	for _, key := range evicted {
		if s.Has(key) {
			t.Fatalf("evicted key %s still live", key)
		}
	}
}

func TestSegmentReclaim(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a full segment")
	}
	dir := t.TempDir()
	cfg := testConfig()
	cfg.MaxBytes = 2 * segmentMaxBytes
	s := mustOpen(t, dir, cfg)
	defer s.Close()
	// Each body is over half a segment, so the second Put rotates: two
	// segments, the first of them sealed.
	big := make([]byte, segmentMaxBytes/2+1)
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), big, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.StatsSnapshot().Segments; n < 2 {
		t.Fatalf("segments = %d after two half-segment puts, want >= 2", n)
	}
	for i := 0; i < 2; i++ {
		if err := s.Delete(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Sweep()
	segs, _ := filepath.Glob(filepath.Join(dir, segGlob))
	if len(segs) > 1 { // only the active segment may remain
		t.Fatalf("dead segments not reclaimed: %v", segs)
	}
	if st := s.StatsSnapshot(); st.Docs != 0 || st.LiveBytes != 0 {
		t.Fatalf("stats after full delete: %+v", st)
	}
}

func TestEntriesOrderedByRecency(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), body(i), Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get("k1"); err != nil { // k1 becomes hottest
		t.Fatal(err)
	}
	es := s.Entries()
	if len(es) != 5 {
		t.Fatalf("Entries len %d", len(es))
	}
	if es[len(es)-1].Key != "k1" {
		t.Fatalf("hottest entry %s, want k1", es[len(es)-1].Key)
	}
	for i := 1; i < len(es); i++ {
		if es[i].Stamp < es[i-1].Stamp {
			t.Fatalf("entries not ascending by stamp")
		}
	}
}

// TestTouchJournaledAndReplayed: a Get past the touchEvery throttle writes
// a touch record, and a reopened store restores the touched key's recency
// from it rather than from its put.
func TestTouchJournaledAndReplayed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), body(i), Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	// Age k0's last journaled touch past the throttle, so the Get below
	// journals one instead of waiting touchEvery.
	s.mu.Lock()
	s.index["k0"].touched = 0
	s.mu.Unlock()
	if _, _, err := s.Get("k0"); err != nil {
		t.Fatal(err)
	}
	es := s.Entries()
	touch := es[len(es)-1]
	if touch.Key != "k0" {
		t.Fatalf("hottest entry %s after the touch, want k0", touch.Key)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	es = s2.Entries()
	if len(es) != 2 {
		t.Fatalf("restored %d entries, want 2", len(es))
	}
	if got := es[len(es)-1]; got.Key != "k0" || got.Stamp != touch.Stamp {
		t.Fatalf("restored hottest entry %s@%d, want k0@%d (the journaled touch)", got.Key, got.Stamp, touch.Stamp)
	}
}

func TestJournalCompactionPreservesStore(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s := mustOpen(t, dir, cfg)
	// Churn one key to bloat the journal with dead records, then compact.
	for i := 0; i < 2000; i++ {
		if err := s.Put("hot", body(i%50), Meta{Version: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("cold", body(7), Meta{Version: 42}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	before := s.journal.size
	err := s.rewriteJournalLocked()
	after := s.journal.size
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if after >= before {
		t.Fatalf("journal did not shrink: %d -> %d", before, after)
	}
	s.Close()

	s2 := mustOpen(t, dir, cfg)
	defer s2.Close()
	if _, m, err := s2.Get("cold"); err != nil || m.Version != 42 {
		t.Fatalf("cold lost after compaction: %v", err)
	}
	if _, m, err := s2.Get("hot"); err != nil || m.Version != 1999 {
		t.Fatalf("hot lost after compaction: %v %+v", err, m)
	}
}

func TestZeroLengthSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	s.Put("k", body(1), Meta{})
	s.Close()
	// A crash can leave a freshly created, never-written segment behind.
	if err := os.WriteFile(filepath.Join(dir, segName(9999)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	if _, _, err := s2.Get("k"); err != nil {
		t.Fatalf("store broken by zero-length segment: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(9999))); !os.IsNotExist(err) {
		t.Fatalf("zero-length segment not cleaned up")
	}
}

// TestFlippedCRCMidFile flips one byte in the middle of the journal: replay
// must stop at the damage (the WAL contract — everything before the first
// bad byte survives as a prefix), count the corruption, and leave a store
// that keeps working and survives another reopen.
func TestFlippedCRCMidFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), body(i), Meta{Version: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	jp := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(jp, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var corrupt int
	cfg := testConfig()
	cfg.Metrics.CorruptRecord = func() { corrupt++ }
	s2 := mustOpen(t, dir, cfg)
	st := s2.StatsSnapshot()
	if !st.CorruptTail {
		t.Fatal("flipped CRC not reported as a torn tail")
	}
	if st.Restored >= 10 || corrupt == 0 {
		t.Fatalf("restored=%d corrupt=%d; want a strict prefix and a corruption count", st.Restored, corrupt)
	}
	// The surviving set is the write-order prefix: k(i) present => k(j)
	// present for all j < i, with intact bodies.
	present := make(map[string]bool)
	for _, e := range s2.Entries() {
		present[e.Key] = true
	}
	seenGap := false
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%02d", i)
		if !present[k] {
			seenGap = true
			continue
		}
		if seenGap {
			t.Fatalf("%s survived past the damage point", k)
		}
		got, m, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, body(i)) || m.Version != int64(i) {
			t.Fatalf("surviving %s unreadable: %v", k, err)
		}
	}
	// The truncated journal accepts new appends cleanly.
	if err := s2.Put("after", body(42), Meta{}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, testConfig())
	defer s3.Close()
	if _, _, err := s3.Get("after"); err != nil {
		t.Fatalf("post-truncation append lost: %v", err)
	}
}

// TestDuplicateRecordReplay appends a byte-identical copy of a put record:
// replay is idempotent (last write wins over the same body bytes), so the
// duplicate must not double-count live bytes or disturb reads.
func TestDuplicateRecordReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("k%d", i), body(i), Meta{Version: int64(i)})
	}
	liveBefore := s.StatsSnapshot().LiveBytes
	s.Close()

	jp := filepath.Join(dir, journalName)
	j, res, err := openJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	var lastPut *record
	for i := range res.records {
		if res.records[i].kind == jPut {
			lastPut = &res.records[i]
		}
	}
	if lastPut == nil {
		t.Fatal("no put record in journal")
	}
	if err := j.append(*lastPut); err != nil {
		t.Fatal(err)
	}
	if err := j.flush(); err != nil {
		t.Fatal(err)
	}
	j.close()

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	st := s2.StatsSnapshot()
	if st.Docs != 5 {
		t.Fatalf("docs=%d after duplicate record, want 5", st.Docs)
	}
	if st.LiveBytes != liveBefore {
		t.Fatalf("live bytes %d after duplicate record, want %d", st.LiveBytes, liveBefore)
	}
	for i := 0; i < 5; i++ {
		got, _, err := s2.Get(fmt.Sprintf("k%d", i))
		if err != nil || !bytes.Equal(got, body(i)) {
			t.Fatalf("k%d unreadable after duplicate record: %v", i, err)
		}
	}
}

// TestTruncationProperty is the torn-tail property test: for any cut point
// in the journal, Open must succeed, and every restored document must read
// back a body consistent with its journaled meta (body(i) <-> Version i).
func TestTruncationProperty(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, testConfig())
	const n = 30
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%10) // overwrite churn: 3 versions per key
		if err := s.Put(key, body(i), Meta{Version: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			s.Delete(fmt.Sprintf("k%d", (i+5)%10))
		}
	}
	s.SaveState([]byte(`{"probe":true}`))
	s.Close()

	raw, err := os.ReadFile(filepath.Join(src, journalName))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(src, segGlob))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		cut := rng.Intn(len(raw) + 1)
		dir := t.TempDir()
		for _, sp := range segs {
			b, err := os.ReadFile(sp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(sp)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, testConfig())
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		for _, e := range s2.Entries() {
			got, m, err := s2.Get(e.Key)
			if err != nil {
				t.Fatalf("cut=%d: restored %s unreadable: %v", cut, e.Key, err)
			}
			if int(m.Version) >= n || !bytes.Equal(got, body(int(m.Version))) {
				t.Fatalf("cut=%d: %s body inconsistent with version %d", cut, e.Key, m.Version)
			}
		}
		if blob := s2.State(); blob != nil && string(blob) != `{"probe":true}` {
			t.Fatalf("cut=%d: state blob corrupted: %q", cut, blob)
		}
		s2.Close()
	}
}

// TestFsyncAlwaysPutFailsOnSyncError: under FsyncAlways, a Put whose journal
// handle was closed underneath it reports the failure instead of success, is
// not served, and leaves no record a restore would serve; Close reports the
// failure too, and both are counted on the SyncError hook.
func TestFsyncAlwaysPutFailsOnSyncError(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Fsync = FsyncAlways
	var syncErrors atomic.Int64
	cfg.Metrics.SyncError = func() { syncErrors.Add(1) }
	s := mustOpen(t, dir, cfg)
	if err := s.Put("kept", body(1), Meta{Version: 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.mu.Lock()
	s.journal.f.Close()
	s.mu.Unlock()
	if err := s.Put("lost", body(2), Meta{Version: 2}); err == nil {
		t.Fatal("Put reported success with its journal handle closed")
	}
	if s.Has("lost") {
		t.Fatal("a Put that failed its sync is served")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close reported success with its journal handle closed")
	}
	if n := syncErrors.Load(); n != 2 {
		t.Fatalf("SyncError counted %d failures, want 2 (the Put and Close)", n)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	if _, _, err := s2.Get("lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore serves the failed Put: %v", err)
	}
	if got, _, err := s2.Get("kept"); err != nil || !bytes.Equal(got, body(1)) {
		t.Fatalf("restore lost the synced Put: %v", err)
	}
}

// TestFsyncAlwaysPutRecoversFromFailedFsync: when a Put's record reaches the
// journal file but its fsync fails, the Put fails and its record is cut from
// the file; the next Put on the same store lands right after the last good
// record, and a restore serves it but not the failed one.
func TestFsyncAlwaysPutRecoversFromFailedFsync(t *testing.T) {
	var failNext atomic.Pointer[os.File]
	fsync = func(f *os.File) error {
		if failNext.CompareAndSwap(f, nil) {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}
	t.Cleanup(func() { fsync = (*os.File).Sync })

	dir := t.TempDir()
	cfg := testConfig()
	cfg.Fsync = FsyncAlways
	var syncErrors atomic.Int64
	cfg.Metrics.SyncError = func() { syncErrors.Add(1) }
	s := mustOpen(t, dir, cfg)
	if err := s.Put("kept", body(1), Meta{Version: 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.mu.Lock()
	failNext.Store(s.journal.f)
	s.mu.Unlock()
	if err := s.Put("lost", body(2), Meta{Version: 2}); err == nil {
		t.Fatal("Put reported success although its journal fsync failed")
	}
	if failNext.Load() != nil {
		t.Fatal("the journal fsync was never attempted")
	}
	if s.Has("lost") {
		t.Fatal("a Put that failed its fsync is served")
	}
	if err := s.Put("after", body(3), Meta{Version: 3}); err != nil {
		t.Fatalf("Put after a failed fsync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := syncErrors.Load(); n != 1 {
		t.Fatalf("SyncError counted %d failures, want 1", n)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	if st := s2.StatsSnapshot(); st.CorruptTail || st.CorruptDrops != 0 {
		t.Fatalf("restore found a damaged journal: %+v", st)
	}
	if _, _, err := s2.Get("lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore serves the Put whose fsync failed: %v", err)
	}
	for i, k := range []string{"kept", "after"} {
		if got, _, err := s2.Get(k); err != nil || !bytes.Equal(got, body(2*i+1)) {
			t.Fatalf("restore lost %q: %v", k, err)
		}
	}
}

// TestIntervalFlusherCountsSyncErrors: the background flusher has no caller
// to return an error to, so a failed interval fsync is counted on the
// SyncError hook.
func TestIntervalFlusherCountsSyncErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Fsync = FsyncInterval
	cfg.quiet = false
	var syncErrors atomic.Int64
	cfg.Metrics.SyncError = func() { syncErrors.Add(1) }
	s := mustOpen(t, t.TempDir(), cfg)
	defer s.Abandon()
	s.mu.Lock()
	s.journal.f.Close()
	s.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for syncErrors.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no failed interval sync was counted")
		}
		time.Sleep(time.Millisecond)
	}
}
