package proxy

import (
	"time"

	"baps/internal/obs"
)

// Fetch decision-path outcomes, one per /fetch request, exposed as
// baps_proxy_fetch_outcomes_total{outcome=...}. Together with the browser
// agent's local-hit counter these cover the paper's full resolution path:
// browser hit → proxy hit → index hit (fetch-forward / direct-forward) →
// origin fallback.
const (
	outProxyHit     = "proxy_hit"
	outDiskHit      = "proxy_disk_hit"
	outPeerFetch    = "peer_fetch_forward"
	outPeerDirect   = "peer_direct_forward"
	outClusterHit   = "cluster_fetch"
	outOrigin       = "origin"
	outOriginHedged = "origin_hedged"
	outError        = "error"
	outCanceled     = "canceled"
)

// serverMetrics holds every proxy metric with the hot-path counters
// pre-resolved, so request handling does one atomic add per event and never
// touches the registry's maps.
type serverMetrics struct {
	reg *obs.Registry

	requests *obs.Counter
	outcomes *obs.CounterVec
	// Pre-resolved outcome children (outcomeCounter maps the string).
	outProxyHit, outDiskHit, outPeerFetch, outPeerDirect             *obs.Counter
	outClusterHit, outOrigin, outOriginHedged, outError, outCanceled *obs.Counter

	// Disk-tier plane (registered always; non-zero only with -datadir).
	diskWrites     *obs.Counter
	diskReads      *obs.Counter
	diskReplays    *obs.Counter
	diskCorrupt    *obs.Counter
	diskEvictions  *obs.Counter
	diskSyncErrors *obs.Counter
	spillSkipped   *obs.Counter // demotions shed by admission control
	spillDropped   *obs.Counter // spills shed by backpressure or disk errors

	// coalesced counts requests that attached to another request's
	// in-flight miss resolution instead of resolving themselves, labeled
	// by the outcome they shared.
	coalesced *obs.CounterVec

	falsePeer         *obs.Counter
	watermarkVerified *obs.Counter
	watermarkRejected *obs.Counter
	watermarkSigned   *obs.Counter
	watermarkMemoHits *obs.Counter
	keyGenerations    *obs.Counter
	relayTimeouts     *obs.Counter
	relayStreamErrors *obs.Counter
	docTooLarge       *obs.Counter
	originRetries     *obs.Counter
	heartbeats        *obs.Counter
	heartbeatMisses   *obs.Counter

	breakerTransitions *obs.CounterVec
	breakerOpened      *obs.Counter // transitions{to="open"}
	breakerClosed      *obs.Counter // transitions{to="closed"}

	registers   *obs.Counter
	unregisters *obs.Counter

	peerServes     *obs.CounterVec // {client=...}
	peerServeBytes *obs.CounterVec // {client=...}

	indexUpdates *obs.CounterVec // {op=resync|drop|batch}
	idxResync    *obs.Counter
	idxDrop      *obs.Counter
	idxBatch     *obs.Counter

	// Batched delta-protocol plane.
	idxBatchDeltas    *obs.Counter
	idxCarriers       *obs.Counter
	idxGenGaps        *obs.Counter
	idxDigestMismatch *obs.Counter
	idxResyncPulls    *obs.Counter

	// Federation plane (all zero on an unfederated proxy).
	clusterFetches        *obs.Counter
	clusterServes         *obs.Counter
	clusterServeHits      *obs.Counter
	clusterLocateConfirms *obs.Counter
	clusterLocateFPs      *obs.Counter
	digestsSent           *obs.Counter
	digestsRecv           *obs.Counter

	// Background pipeline plane (pipeline.go).
	revalidations *obs.CounterVec // {result=fresh|changed|error}
	revalFresh    *obs.Counter
	revalChanged  *obs.Counter
	revalErrors   *obs.Counter
	invalidations *obs.CounterVec // {target=local|browser|sibling}
	invalLocal    *obs.Counter
	invalBrowser  *obs.Counter
	invalSibling  *obs.Counter
	invalRecv     *obs.Counter

	fetchDur     *obs.Summary
	peerFetchDur *obs.Summary
	originFetch  *obs.Summary
}

// newServerMetrics registers the proxy's metric families on reg and wires
// the callback gauges to s's live structures.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{reg: reg}
	m.requests = reg.Counter("baps_proxy_requests_total",
		"Total /fetch requests accepted.")
	m.outcomes = reg.CounterVec("baps_proxy_fetch_outcomes_total",
		"Fetch decision-path outcomes.", "outcome",
		outProxyHit, outDiskHit, outPeerFetch, outPeerDirect, outClusterHit,
		outOrigin, outOriginHedged, outError, outCanceled)
	m.outProxyHit = m.outcomes.With(outProxyHit)
	m.outDiskHit = m.outcomes.With(outDiskHit)
	m.outPeerFetch = m.outcomes.With(outPeerFetch)
	m.outPeerDirect = m.outcomes.With(outPeerDirect)
	m.outClusterHit = m.outcomes.With(outClusterHit)
	m.outOrigin = m.outcomes.With(outOrigin)
	m.outOriginHedged = m.outcomes.With(outOriginHedged)
	m.outError = m.outcomes.With(outError)
	m.outCanceled = m.outcomes.With(outCanceled)

	// The outcomes a coalesced (fetch-forward or origin-only) resolution
	// can produce.
	m.coalesced = reg.CounterVec("baps_proxy_coalesced_total",
		"Requests served from another request's in-flight miss resolution.", "outcome",
		outPeerFetch, outClusterHit, outOrigin, outOriginHedged, outError, outCanceled)

	m.diskWrites = reg.Counter("baps_proxy_disk_writes_total",
		"Document bodies spilled to the disk tier.")
	m.diskReads = reg.Counter("baps_proxy_disk_reads_total",
		"Document bodies read back from the disk tier.")
	m.diskReplays = reg.Counter("baps_proxy_disk_replays_total",
		"Documents re-seated from the disk journal at startup.")
	m.diskCorrupt = reg.Counter("baps_proxy_disk_corrupt_records_total",
		"Disk journal/body records dropped for CRC or framing damage.")
	m.diskEvictions = reg.Counter("baps_proxy_disk_evictions_total",
		"Disk-tier documents evicted by the retention sweep.")
	m.diskSyncErrors = reg.Counter("baps_proxy_disk_sync_errors_total",
		"Disk-tier flushes or fsyncs that failed; the writes they covered may not be durable.")
	m.spillSkipped = reg.Counter("baps_proxy_disk_spill_skipped_total",
		"Memory-tier demotions shed by spill admission control (one-hit wonders).")
	m.spillDropped = reg.Counter("baps_proxy_disk_spill_dropped_total",
		"Spills shed by queue backpressure or disk write failures.")

	m.falsePeer = reg.Counter("baps_proxy_false_peer_total",
		"Index hits that failed to produce the document from the peer.")
	m.watermarkVerified = reg.Counter("baps_proxy_watermark_verified_total",
		"Peer-served bodies that passed digest/watermark verification.")
	m.watermarkRejected = reg.Counter("baps_proxy_watermark_rejected_total",
		"Peer-served bodies rejected by digest/watermark verification, or reported bad by the requester of a delivered relay.")
	m.watermarkSigned = reg.Counter("baps_proxy_watermark_signed_total",
		"Watermarks derived with an RSA private-key operation (first demand for a digest).")
	m.watermarkMemoHits = reg.Counter("baps_proxy_watermark_memo_hits_total",
		"Watermark demands answered from the digest-keyed memo, without signing.")
	m.keyGenerations = reg.Counter("baps_proxy_signing_key_generations_total",
		"Watermark RSA key pairs generated (first key demand with no usable DIR/key.pem).")
	m.relayTimeouts = reg.Counter("baps_proxy_relay_timeouts_total",
		"Direct-forward relays that timed out waiting for the holder push.")
	m.relayStreamErrors = reg.Counter("baps_proxy_relay_stream_errors_total",
		"Direct-forward streamed relays that aborted mid-copy or went unclaimed.")
	m.docTooLarge = reg.Counter("baps_proxy_doc_too_large_total",
		"Document bodies rejected for exceeding MaxDocBytes.")
	m.originRetries = reg.Counter("baps_proxy_origin_retries_total",
		"Backoff retries against the origin.")
	m.heartbeats = reg.Counter("baps_proxy_heartbeats_total",
		"Browser heartbeats received.")
	m.heartbeatMisses = reg.Counter("baps_proxy_heartbeat_misses_total",
		"Peers tripped by the heartbeat-silence sweep.")

	m.breakerTransitions = reg.CounterVec("baps_proxy_breaker_transitions_total",
		"Per-peer circuit-breaker state transitions.", "to", "open", "closed")
	m.breakerOpened = m.breakerTransitions.With("open")
	m.breakerClosed = m.breakerTransitions.With("closed")

	m.registers = reg.Counter("baps_proxy_registers_total",
		"Browser registrations.")
	m.unregisters = reg.Counter("baps_proxy_unregisters_total",
		"Graceful browser departures.")

	m.peerServes = reg.CounterVec("baps_proxy_peer_serves_total",
		"Documents served out of each peer's browser cache.", "client")
	m.peerServeBytes = reg.CounterVec("baps_proxy_peer_serve_bytes_total",
		"Bytes served out of each peer's browser cache.", "client")

	m.indexUpdates = reg.CounterVec("baps_proxy_index_updates_total",
		"Browser index mutations by kind.", "op", "resync", "drop", "batch")
	m.idxResync = m.indexUpdates.With("resync")
	m.idxDrop = m.indexUpdates.With("drop")
	m.idxBatch = m.indexUpdates.With("batch")

	m.idxBatchDeltas = reg.Counter("baps_proxy_index_batch_deltas_total",
		"Index deltas carried by applied delta sub-batches.")
	m.idxCarriers = reg.Counter("baps_proxy_index_carriers_total",
		"POST /index/batch carriers processed.")
	m.idxGenGaps = reg.Counter("baps_proxy_index_gen_gaps_total",
		"Batch generation gaps observed (triggering a resync pull).")
	m.idxDigestMismatch = reg.Counter("baps_proxy_index_digest_mismatches_total",
		"Bloom directory digests that disagreed with the proxy's view.")
	m.idxResyncPulls = reg.Counter("baps_proxy_index_resync_pulls_total",
		"/peer/resync pulls issued to recover from batch drift.")

	m.clusterFetches = reg.Counter("baps_proxy_cluster_fetches_total",
		"Documents relayed in from sibling proxies (federation tier).")
	m.clusterServes = reg.Counter("baps_proxy_cluster_serves_total",
		"Cluster-hop requests received from sibling proxies.")
	m.clusterServeHits = reg.Counter("baps_proxy_cluster_serve_hits_total",
		"Cluster-hop requests answered with a document body.")
	m.clusterLocateConfirms = reg.Counter("baps_proxy_cluster_locate_confirms_total",
		"Sibling /peer/locate probes answered held.")
	m.clusterLocateFPs = reg.Counter("baps_proxy_cluster_locate_fps_total",
		"Sibling digest claims denied by /peer/locate (Bloom false positives).")
	m.digestsSent = reg.Counter("baps_proxy_digests_sent_total",
		"Federation digests delivered to siblings.")
	m.digestsRecv = reg.Counter("baps_proxy_digests_received_total",
		"Federation digests ingested from siblings.")

	m.revalidations = reg.CounterVec("baps_proxy_revalidations_total",
		"Background origin revalidations by result.", "result", "fresh", "changed", "error")
	m.revalFresh = m.revalidations.With("fresh")
	m.revalChanged = m.revalidations.With("changed")
	m.revalErrors = m.revalidations.With("error")
	m.invalidations = reg.CounterVec("baps_proxy_invalidations_total",
		"Invalidation fan-out jobs completed, by target tier.", "target", "local", "browser", "sibling")
	m.invalLocal = m.invalidations.With("local")
	m.invalBrowser = m.invalidations.With("browser")
	m.invalSibling = m.invalidations.With("sibling")
	m.invalRecv = reg.Counter("baps_proxy_peer_invalidations_received_total",
		"Cluster invalidations ingested from federation siblings.")

	m.fetchDur = reg.Summary("baps_proxy_fetch_duration_seconds",
		"End-to-end /fetch latency.")
	m.peerFetchDur = reg.Summary("baps_proxy_peer_fetch_duration_seconds",
		"Successful peer-resolution latency.")
	m.originFetch = reg.Summary("baps_proxy_origin_fetch_duration_seconds",
		"Successful origin round-trip latency.")

	reg.GaugeFunc("baps_proxy_index_entries",
		"Live browser-index entries.", func() float64 { return float64(s.idx.Len()) })
	reg.GaugeFunc("baps_proxy_index_quarantined_entries",
		"Browser-index entries under breaker quarantine.", func() float64 { return float64(s.quarantinedEntries()) })
	reg.GaugeFunc("baps_proxy_index_docs",
		"Distinct documents currently indexed.", func() float64 { return float64(s.idx.URLCount()) })
	reg.GaugeFunc("baps_proxy_watermark_memo_entries",
		"Watermarks held in the digest-keyed memo.", func() float64 { return float64(s.marks.Len()) })
	reg.GaugeFunc("baps_proxy_cache_docs",
		"Documents in the proxy cache.", func() float64 { n, _ := s.docs.Size(); return float64(n) })
	reg.GaugeFunc("baps_proxy_cache_bytes",
		"Bytes in the proxy cache.", func() float64 { _, b := s.docs.Size(); return float64(b) })
	reg.GaugeFunc("baps_proxy_clients",
		"Registered browser agents.", func() float64 {
			s.regMu.RLock()
			defer s.regMu.RUnlock()
			return float64(len(s.peers))
		})
	for _, st := range []string{"closed", "open", "half_open"} {
		st := st
		reg.LabeledGaugeFunc("baps_proxy_breaker_peers",
			"Peers by circuit-breaker state.", "state", st, func() float64 {
				closed, open, half := s.health.Counts()
				switch st {
				case "open":
					return float64(open)
				case "half_open":
					return float64(half)
				default:
					return float64(closed)
				}
			})
	}
	reg.GaugeFunc("baps_proxy_disk_docs",
		"Documents live in the disk tier.", func() float64 {
			if s.ds == nil {
				return 0
			}
			return float64(s.ds.Len())
		})
	reg.GaugeFunc("baps_proxy_disk_bytes",
		"Live body bytes in the disk tier.", func() float64 {
			if s.ds == nil {
				return 0
			}
			return float64(s.ds.Used())
		})
	reg.GaugeFunc("baps_proxy_restored_docs",
		"Documents re-seated from the disk journal by the last startup.",
		func() float64 { return float64(s.restoredDocs) })
	reg.GaugeFunc("baps_proxy_restart_to_warm_seconds",
		"Seconds from startup until a tenth of the restored set was served locally again (0 until warm).",
		s.restartToWarmSeconds)
	reg.GaugeFunc("baps_proxy_uptime_seconds",
		"Seconds since the proxy started.", func() float64 { return time.Since(s.started).Seconds() })
	return m
}

// outcomeCounter maps an outcome string to its pre-resolved child counter.
func (m *serverMetrics) outcomeCounter(outcome string) *obs.Counter {
	switch outcome {
	case outProxyHit:
		return m.outProxyHit
	case outDiskHit:
		return m.outDiskHit
	case outPeerFetch:
		return m.outPeerFetch
	case outPeerDirect:
		return m.outPeerDirect
	case outClusterHit:
		return m.outClusterHit
	case outOrigin:
		return m.outOrigin
	case outOriginHedged:
		return m.outOriginHedged
	case outCanceled:
		return m.outCanceled
	default:
		return m.outError
	}
}

// Obs exposes the proxy's metrics registry (exposition, tests, asserting on
// deltas).
func (s *Server) Obs() *obs.Registry { return s.m.reg }

// Tracer exposes the proxy's request tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }
