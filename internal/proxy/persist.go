package proxy

import (
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"baps/internal/diskstore"
	"baps/internal/integrity"
	"baps/internal/obs"
)

// The disk tier turns the proxy's two-tier cache crash-safe: memory-tier
// demotions spill document bodies into internal/diskstore, and on startup
// the journal replay re-seats the cache skeleton, the /stats counters, and
// the per-client registration + batch-generation tables, so a kill/restart
// recovers its hit ratio without a thundering herd onto the origin. Where a
// document's body lives, and every move between memory, the spill stage and
// the disk store, is the docRecord state table in docs.go. s.ds is never
// called with s.mu held; the spill worker and the disk-store sweep take s.mu
// from outside any disk-store lock.
//
// Admission control: a body is spilled only once its key has been accessed
// spillMinHits times (storeDoc counts the storing fetch); a one-hit wonder
// demoted from memory is shed from the cache instead of written to disk.
// Reading back promotes to memory on the second post-spill access — the
// first is streamed straight from disk through a pooled buffer.
const spillMinHits = 2

// spillOp is one unit of the spill worker's queue: drop key's disk copy
// (del), or write its body to the disk store if the record is still in state
// from — docStaged for a demotion spill, docMemory for write-behind, where
// the body stays resident.
type spillOp struct {
	key  string
	del  bool
	from docState
}

// wbBatchMax bounds how many memory-tier bodies one write-behind tick may
// enqueue, so a big hot set drains over several intervals instead of
// flooding the spill queue.
const wbBatchMax = 128

// persistClient is one registered browser in the persisted state blob.
type persistClient struct {
	ID       int    `json:"id"`
	PeerURL  string `json:"peer_url"`
	Token    string `json:"token"`
	RelayKey []byte `json:"relay_key"`
}

// persistState is the owner-state blob journaled into the disk store: the
// non-derivable proxy state a restart must re-seat (counters, client
// registrations, batch generations). The cache skeleton itself is derived
// from the store's own entries.
type persistState struct {
	SavedUnix int64               `json:"saved_unix"`
	NextID    int                 `json:"next_id"`
	Clients   []persistClient     `json:"clients,omitempty"`
	Gens      map[int]uint64      `json:"gens,omitempty"`
	Counters  obs.CounterSnapshot `json:"counters"`
}

// keyFile is the watermark key's name under Config.DataDir.
const keyFile = "key.pem"

// loadOrCreateSigner is the default key source behind signingKey. With a
// data directory the key lives in DIR/key.pem across restarts. No signature
// is ever stored: the journal keeps each document's digest, and because
// signing is deterministic the reopened proxy re-derives, on first demand,
// the very watermark bytes agents stored before the kill (and the public key
// they fetched still verifies them). A generated key is on disk before it is
// returned, so no watermark is ever made under a key a crash could lose.
// Without a data directory every process generates a fresh key.
func (s *Server) loadOrCreateSigner() (*integrity.Signer, error) {
	dir := s.cfg.DataDir
	if dir != "" {
		pemBytes, err := os.ReadFile(filepath.Join(dir, keyFile))
		switch {
		case err == nil:
			if priv, perr := integrity.ParsePrivateKey(pemBytes); perr == nil {
				return integrity.NewSignerFromKey(priv)
			}
			// Unparsable key file: replace it. Watermarks agents hold
			// from the lost key stop verifying; their copies are rejected
			// and pruned on the peer path like any other stale entry.
		case !errors.Is(err, fs.ErrNotExist):
			// The key may still be there: fail this demand rather than
			// replace it.
			return nil, err
		}
	}
	signer, err := integrity.NewSigner(s.cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	s.m.keyGenerations.Inc()
	if dir != "" {
		if err := writeFileAtomic(dir, keyFile, signer.MarshalPrivateKey()); err != nil {
			return nil, err
		}
	}
	return signer, nil
}

// writeFileAtomic replaces dir/name with data so that a crash leaves the old
// file or the new one, never a torn mix: the bytes go to a fresh temp file in
// dir (mode 0600), are fsynced and renamed over name, and dir is fsynced so
// the rename is durable too. A temp file a crash leaves behind is never read.
func writeFileAtomic(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return diskstore.SyncDir(dir)
}

// openDiskTier opens the disk store, replays it into the cache skeleton and
// the proxy's tables, and starts the spill worker + state-save loop. Called
// from New when Config.DataDir is set.
func (s *Server) openDiskTier() error {
	dcfg := diskstore.Config{
		MaxBytes:  s.cfg.DiskMaxBytes,
		Retention: s.cfg.DiskRetention,
		Fsync:     s.cfg.DiskFsync,
		OnEvict:   s.dropLostLocal,
		Metrics: diskstore.MetricsHooks{
			Write:         s.m.diskWrites.Inc,
			Read:          s.m.diskReads.Inc,
			CorruptRecord: s.m.diskCorrupt.Inc,
			Eviction:      s.m.diskEvictions.Inc,
			SyncError:     s.m.diskSyncErrors.Inc,
		},
	}
	ds, err := diskstore.Open(s.cfg.DataDir, dcfg)
	if err != nil {
		return err
	}
	s.ds = ds

	// Re-seat the cache skeleton coldest-first, so the restored LRU order
	// matches the journaled recency order. Bodies stay on disk and fault
	// back in on access.
	entries := ds.Entries()
	s.mu.Lock()
	for _, e := range entries {
		s.restoreDocLocked(e.Key, docMeta{version: e.Meta.Version, size: e.Meta.Size, digest: e.Meta.Digest})
	}
	s.restoredDocs = len(entries)
	s.mu.Unlock()
	s.m.diskReplays.Add(int64(len(entries)))
	if s.restoredDocs > 0 {
		// Warm once a tenth of the restored set has been served locally.
		s.warmTarget = int64(s.restoredDocs / 10)
		if s.warmTarget < 1 {
			s.warmTarget = 1
		}
	}

	if blob := ds.State(); blob != nil {
		s.restoreState(blob)
	}
	if s.logger != nil {
		st := ds.StatsSnapshot()
		s.logger.Info("disk tier opened",
			"dir", s.cfg.DataDir,
			"restored_docs", st.Restored,
			"live_bytes", st.LiveBytes,
			"corrupt_tail", st.CorruptTail,
			"replay_ms", float64(st.ReplayElapsed.Microseconds())/1e3,
			"restored_clients", s.restoredClients)
	}

	s.diskWG.Add(2)
	go s.spillWorker()
	go s.stateSaveLoop()
	return nil
}

// restoreState re-seats the non-derivable proxy state from a persisted
// blob: client registrations (tokens stay valid across the restart), batch
// generations (a client whose live generation has moved past the snapshot
// is caught as a gap on its next batch, forcing the /peer/resync pull), and
// the counter families behind /stats. A blob from an older build restores
// what it can and skips the rest.
func (s *Server) restoreState(blob []byte) {
	var st persistState
	if err := json.Unmarshal(blob, &st); err != nil {
		if s.logger != nil {
			s.logger.Warn("disk state blob unreadable; starting with fresh tables", "err", err)
		}
		return
	}
	s.mu.Lock()
	if st.NextID > s.nextID {
		s.nextID = st.NextID
	}
	for _, c := range st.Clients {
		s.peers[c.ID] = peerInfo{id: c.ID, baseURL: c.PeerURL, token: c.Token, relayKey: c.RelayKey}
		s.peersByURL[c.PeerURL] = c.ID
		s.tokens[c.Token] = c.ID
	}
	s.restoredClients = len(st.Clients)
	s.mu.Unlock()
	for _, c := range st.Clients {
		s.health.Track(c.ID)
	}
	for id, gen := range st.Gens {
		s.batches.seed(id, gen)
	}
	s.m.reg.RestoreCounters(st.Counters)
}

// saveState journals a fresh state blob into the disk store.
func (s *Server) saveState() {
	if s.ds == nil {
		return
	}
	st := persistState{
		SavedUnix: time.Now().Unix(),
		Counters:  s.m.reg.SnapshotCounters(),
		Gens:      s.batches.snapshotGens(),
	}
	s.mu.Lock()
	st.NextID = s.nextID
	for _, p := range s.peers {
		st.Clients = append(st.Clients, persistClient{ID: p.id, PeerURL: p.baseURL, Token: p.token, RelayKey: p.relayKey})
	}
	s.mu.Unlock()
	blob, err := json.Marshal(st)
	if err != nil {
		return
	}
	s.ds.SaveState(blob)
}

// stateSaveLoop persists the state blob on an interval and write-behinds
// the admitted memory-tier bodies that have no current disk copy. The final
// save on graceful Close makes the snapshot exact; this loop bounds what a
// crash can lose — including the hottest documents, which never demote out
// of the memory tier and so would otherwise only exist in RAM.
func (s *Server) stateSaveLoop() {
	defer s.diskWG.Done()
	t := time.NewTicker(s.cfg.stateSaveEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopDisk:
			return
		case <-t.C:
			s.writeBehind()
			s.saveState()
		}
	}
}

// writeBehind enqueues durable copies of admitted memory-tier bodies whose
// current version is not yet on disk.
func (s *Server) writeBehind() {
	s.mu.Lock()
	var ops []spillOp
	for key, r := range s.docs {
		if r.state != docMemory || r.durable || r.hits < spillMinHits {
			continue
		}
		ops = append(ops, spillOp{key: key, from: docMemory})
		if len(ops) >= wbBatchMax {
			break
		}
	}
	s.mu.Unlock()
	for _, op := range ops {
		select {
		case s.spillq <- op:
		default:
			return // queue saturated; the next tick retries
		}
	}
}

// spillWorker owns every disk-store call the request path needs: demotion
// spills and eviction deletes, serialized off the hot path so no HTTP
// handler ever waits on disk I/O it isn't reading.
func (s *Server) spillWorker() {
	defer s.diskWG.Done()
	for {
		select {
		case op := <-s.spillq:
			s.handleSpill(op)
		case <-s.stopDisk:
			// Drain what's queued so a graceful shutdown spills every
			// staged body before the store's final flush.
			for {
				select {
				case op := <-s.spillq:
					s.handleSpill(op)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) handleSpill(op spillOp) {
	if op.del {
		// A record re-stored and made durable since the delete was queued
		// owns the disk copy now.
		s.mu.Lock()
		r := s.docs[op.key]
		keep := r != nil && r.durable
		s.mu.Unlock()
		if !keep {
			s.ds.Delete(op.key)
		}
		return
	}
	s.mu.Lock()
	r := s.docs[op.key]
	if r == nil || r.state != op.from || r.durable {
		s.mu.Unlock()
		return // promoted back, re-stored, demoted or evicted while queued
	}
	// Bodies are never mutated in place (a store replaces the slice), so
	// the write can read this one without the lock.
	body, meta := r.body, r.meta
	s.mu.Unlock()
	err := s.ds.Put(op.key, body, diskstore.Meta{Version: meta.version, Digest: meta.digest})
	s.mu.Lock()
	s.spillDoneLocked(op.key, meta.version, err)
	s.mu.Unlock()
	if err != nil && op.from == docStaged {
		s.m.spillDropped.Inc()
		if s.logger != nil {
			s.logger.Warn("disk spill failed", "url", op.key, "err", err)
		}
	}
}

// noteLocalHit advances the restart-to-warm tracker: the proxy counts as
// warm once a tenth of the restored set has been served locally again.
func (s *Server) noteLocalHit() {
	if s.warmTarget <= 0 || s.warmAt.Load() != 0 {
		return
	}
	if s.warmHits.Add(1) >= s.warmTarget {
		s.warmAt.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// restartToWarmSeconds reports the seconds from start to warm (0 until
// warm, or when nothing was restored).
func (s *Server) restartToWarmSeconds() float64 {
	at := s.warmAt.Load()
	if at == 0 {
		return 0
	}
	return time.Unix(0, at).Sub(s.started).Seconds()
}

// serveLocal resolves a /fetch against the local tiers: memory (and the
// spill stage) first, then the disk store. The first post-spill access
// streams straight from disk through a pooled buffer; the second faults the
// body back into the memory tier. ok=false means not resident anywhere
// local and the caller should run miss resolution. book receives a buffered
// serve's outcome before its body; a disk stream's is left to the caller.
func (s *Server) serveLocal(w http.ResponseWriter, book *outcomeBook, url string, requester int) (string, bool) {
	s.mu.Lock()
	r := s.residentLocked(url)
	if r == nil {
		s.mu.Unlock()
		return "", false
	}
	meta := r.meta
	if r.state != docDisk {
		body := r.body
		s.touchLocked(url, r)
		s.mu.Unlock()
		s.noteLocalHit()
		if s.serveDoc(w, book, outProxyHit, SourceProxy, body, meta, requester) != nil {
			return outError, true
		}
		return outProxyHit, true
	}
	r.hits++
	promote := r.hits >= spillMinHits
	s.mu.Unlock()

	if promote {
		return s.serveDiskPromote(w, book, url, meta, requester)
	}
	return s.serveDiskStream(w, url, meta, requester)
}

// serveDiskPromote faults a disk-resident body back into the memory tier
// and serves it.
func (s *Server) serveDiskPromote(w http.ResponseWriter, book *outcomeBook, url string, meta docMeta, requester int) (string, bool) {
	body, dmeta, err := s.ds.Get(url)
	if err != nil {
		s.dropLostLocal(url)
		return "", false
	}
	s.mu.Lock()
	s.promoteLocked(url, body, dmeta.Version)
	s.mu.Unlock()
	s.noteLocalHit()
	if s.serveDoc(w, book, outDiskHit, SourceProxy, body, meta, requester) != nil {
		return outError, true
	}
	return outDiskHit, true
}

// serveDiskStream streams a disk-resident body to the response through a
// pooled buffer without promoting it (or buffering it in proxy memory).
// Headers are deferred to the first body byte, so a read that fails before
// any output can still fall back to miss resolution. Its outcome is only
// final once the whole body is read — a mid-body read failure turns the hit
// into an error — so it is booked after the body, by the caller.
func (s *Server) serveDiskStream(w http.ResponseWriter, url string, meta docMeta, requester int) (string, bool) {
	lw := &lazyHeaderWriter{s: s, w: w, meta: meta, requester: requester}
	_, dmeta, err := s.ds.ReadTo(lw, url)
	if err == nil && !lw.wrote {
		lw.meta.size = dmeta.Size
		err = lw.commit()
	}
	switch {
	case err == nil:
		s.noteLocalHit()
		return outDiskHit, true
	case !lw.wrote:
		s.dropLostLocal(url)
		return "", false
	default:
		// The watermark could not be derived (a 500 was sent in place of
		// the headers), or the read failed mid-body and the short write
		// aborts the response at the client (Content-Length was already
		// committed).
		return outError, true
	}
}

// dropLostLocal books the loss of url's disk copy — missing or corrupt on
// read, or dropped by the disk store's retention sweep (its OnEvict
// callback, called without the store's locks held). If that was the only
// copy, the document is no longer resident.
func (s *Server) dropLostLocal(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.docs[url]; r != nil {
		r.durable = false
		if r.state == docDisk {
			s.shedLocked(url, r)
		}
	}
}

// lazyHeaderWriter defers the response headers until the first body byte,
// so a disk read that fails before producing output leaves the
// ResponseWriter untouched for the miss path.
type lazyHeaderWriter struct {
	s         *Server
	w         http.ResponseWriter
	meta      docMeta
	requester int
	wrote     bool
}

func (l *lazyHeaderWriter) commit() error {
	l.wrote = true
	return l.s.writeDocHeaders(l.w, SourceProxy, l.meta, l.requester)
}

func (l *lazyHeaderWriter) Write(p []byte) (int, error) {
	if !l.wrote {
		if err := l.commit(); err != nil {
			return 0, err
		}
	}
	return l.w.Write(p)
}

// Crash abandons the server abruptly — the in-process stand-in for SIGKILL
// used by the chaos and load harnesses: the listener is torn down
// mid-request, no journal flush, no state save. Whatever already reached
// the OS survives for the next Open.
func (s *Server) Crash() {
	s.sweepOnce.Do(func() { close(s.stopSweep) })
	// The background pipeline dies abruptly: queued jobs drop, in-flight
	// attempts are cancelled, nothing retries (workqueue.Kill, not Close).
	s.pipeOnce.Do(func() { close(s.stopPipeline) })
	s.pipelineWG.Wait()
	s.wq.Kill()
	// A killed process stops pushing federation digests; siblings must
	// notice via staleness, so the push loop dies with the listener.
	if fed := s.fed.Load(); fed != nil {
		fed.Stop()
	}
	if s.ds != nil {
		s.diskOnce.Do(func() { close(s.stopDisk) })
		s.ds.Abandon() // queued spill ops fail against the closed store
		s.diskWG.Wait()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
}
