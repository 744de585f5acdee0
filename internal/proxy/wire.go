package proxy

// Wire types shared between the browsers-aware proxy and the browser agents
// (internal/browser imports these; the dependency is one-way).

import (
	"baps/internal/federation"
	"baps/internal/workqueue"
)

// Header names of the BAPS protocol.
const (
	// HeaderClient carries the requesting client's id on /fetch and the
	// authenticated client id on index updates.
	HeaderClient = "X-BAPS-Client"
	// HeaderToken authenticates proxy↔browser calls: the proxy presents
	// the holder's registration token when fetching from its peer
	// server, and browsers present their own token on index updates.
	HeaderToken = "X-BAPS-Token"
	// HeaderSource reports where /fetch satisfied the request:
	// "proxy", "remote" or "origin".
	HeaderSource = "X-BAPS-Source"
	// HeaderWatermark carries the base64 RSA-MD5 watermark (§6.1).
	HeaderWatermark = "X-BAPS-Watermark"
	// HeaderVersion carries the origin document version.
	HeaderVersion = "X-BAPS-Version"
	// HeaderNoPeer, when set to "1" on /fetch, disables remote-browser
	// resolution (used after a client-side watermark rejection).
	HeaderNoPeer = "X-BAPS-No-Peer"
	// HeaderOnion, set to "1" on a /fetch response, announces that the
	// document will arrive out-of-band over an onion-routed covert path
	// (the response body is empty; the agent waits on its peer server).
	HeaderOnion = "X-BAPS-Onion"
	// HeaderOnionRoute carries the base64 route onion on browser-to-
	// browser /peer/onion deliveries; the body is the sealed payload.
	HeaderOnionRoute = "X-BAPS-Onion-Route"
	// HeaderClusterHop, set to "1" on a sibling proxy's /fetch, marks a
	// cross-proxy relay: the receiver resolves only its local tiers (cache
	// + its own browsers), never its own cluster tier or the origin, and
	// answers 404 when it does not hold the document. One hop, no loops.
	HeaderClusterHop = "X-BAPS-Cluster-Hop"
)

// Source values for HeaderSource.
const (
	SourceProxy  = "proxy"
	SourceRemote = "remote"
	SourceOrigin = "origin"
	// SourceCluster marks a document relayed from a sibling proxy in the
	// federation (its cache or one of its browsers).
	SourceCluster = "cluster"
)

// RegisterRequest is the body of POST /register.
type RegisterRequest struct {
	// PeerURL is the base URL of the client's peer server
	// (e.g. http://127.0.0.1:41234).
	PeerURL string `json:"peer_url"`
}

// RegisterResponse is the reply to POST /register.
type RegisterResponse struct {
	ClientID  int    `json:"client_id"`
	Token     string `json:"token"`
	PublicKey string `json:"public_key"` // PEM, for watermark verification
	// RelayKey is the client's base64 AES-256 covert-path key: the proxy
	// uses it to address route-onion layers at this client, making every
	// browser a potential relay (§6.2's decentralized variant).
	RelayKey string `json:"relay_key"`
}

// IndexDelta is one incremental directory change inside an IndexBatch: an
// upsert of (URL, Size, Version, Stamp), or — when Remove is set — the
// withdrawal of URL. The batch sender has already coalesced per-URL churn
// (last write wins), so a batch carries at most one delta per URL.
type IndexDelta struct {
	URL     string  `json:"url"`
	Remove  bool    `json:"remove,omitempty"`
	Size    int64   `json:"size,omitempty"`
	Version int64   `json:"version,omitempty"`
	Stamp   float64 `json:"stamp,omitempty"`
}

// IndexBatch is one client's generation-numbered set of net directory
// deltas, optionally carrying a Bloom digest of the sender's full directory
// for drift detection.
//
// Generation rules at the proxy, per client: Gen == last+1 is the normal
// successor; Gen == last is an idempotent retransmit (applied again — deltas
// are upserts/removals, so replay is harmless); anything else is a gap, and
// the proxy schedules a /peer/resync pull to re-fetch the full directory
// rather than trusting its drifted view.
type IndexBatch struct {
	ClientID int          `json:"client_id"`
	Gen      uint64       `json:"gen"`
	Deltas   []IndexDelta `json:"deltas"`
	// Digest, when non-empty, is the base64 encoding of a
	// bloom.Filter.MarshalBinary over every URL in the sender's cache
	// directory *after* this batch's deltas. The proxy rebuilds the same
	// filter geometry over its believed directory for the client and
	// compares bit-for-bit; a mismatch means drift (e.g. lost batch,
	// proxy restart) and triggers the /peer/resync pull.
	Digest string `json:"digest,omitempty"`
	// Full marks a full directory sync (the answer to /peer/resync): Deltas
	// are every resident document, they replace the client's directory
	// outright, and Gen re-seats the proxy's counter instead of being
	// judged against it, so the sender's next batch (Gen+1) is not a gap.
	Full bool `json:"full,omitempty"`
}

// HostBatch is one agent's sub-batch inside an IndexMultiBatch. The token is
// carried per sub-batch — not per carrier — because the sender (an agent
// host, or a standalone agent's own publisher) has no identity of its own
// at the proxy: each sub-batch authenticates as its agent.
type HostBatch struct {
	IndexBatch
	Token string `json:"token"`
}

// IndexMultiBatch is the body of POST /index/batch: one publisher's carrier
// for the pending index deltas of every agent it serves — one for a
// standalone agent, the whole fleet for an AgentHost. Generation rules stay
// per client; the carrier changes the transport cost (one request, one
// connection, one JSON envelope for N agents), not the protocol.
type IndexMultiBatch struct {
	Batches []HostBatch `json:"batches"`
}

// MultiBatchResponse reports per-sub-batch outcomes: Rejected lists the
// client ids whose sub-batch failed authentication (unregistered or
// superseded), so the host can drop their pending state instead of
// retransmitting forever. A transport-level failure returns no response at
// all and the host keeps everything (idempotent retransmit).
type MultiBatchResponse struct {
	Accepted int   `json:"accepted"`
	Rejected []int `json:"rejected,omitempty"`
}

// DeadLetterResponse is the body of GET /queue/deadletter: the background
// queue's retained retry-exhausted jobs, newest last.
type DeadLetterResponse struct {
	DeadLetters []workqueue.DeadLetter `json:"dead_letters"`
}

// ReplayResponse is the body of POST /queue/replay.
type ReplayResponse struct {
	Replayed int `json:"replayed"`
	Skipped  int `json:"skipped"`
}

// PeerSend is the body of POST <peer>/peer/send: the proxy instructs a
// holder to push a document to an anonymous relay drop (direct-forward
// mode). The holder learns only the relay URL, never the requester.
type PeerSend struct {
	URL      string `json:"url"`
	RelayURL string `json:"relay_url"`
}

// PeerOnionSend is the body of POST <peer>/peer/onion-send: the proxy
// instructs a holder to launch a document onto an onion-routed covert path.
// The holder learns only the first hop's address; the route onion (built by
// the proxy from the relay keys it holds) hides everything downstream, and
// the document itself is sealed end-to-end under the ephemeral key, which
// only the terminal hop recovers from its route layer.
type PeerOnionSend struct {
	URL             string `json:"url"`
	FirstAddr       string `json:"first_addr"`
	RouteB64        string `json:"route_b64"`
	EphemeralKeyB64 string `json:"ephemeral_key_b64"`
}

// OnionFinal is the terminal route-layer content: it tells the requester
// which document is arriving and the ephemeral key that opens the sealed
// payload. Encoded with encoding/gob.
type OnionFinal struct {
	URL string
	Key []byte
}

// OnionDelivery is the sealed payload of an onion transfer, browser to
// browser. Encoded with encoding/gob, then Seal()ed under the ephemeral key.
type OnionDelivery struct {
	URL       string
	Version   int64
	Watermark []byte
	Body      []byte
}

// LocateResponse is the reply to GET /peer/locate?url=U — a sibling proxy's
// membership-check confirmation step. A Bloom digest can only say "maybe";
// locate turns that into a committed yes (200 + this body) or no (404),
// charging the requester one tiny round trip instead of a relayed fetch that
// would 404 at the filter's false-positive rate.
type LocateResponse struct {
	Held bool `json:"held"`
	// Via reports which local tier backs the claim: "cache" (the sibling's
	// own proxy cache) or "browser" (at least one of its indexed browsers).
	Via string `json:"via,omitempty"`
}

// InvalidateRequest is the body of POST /cache/invalidate (proxy →
// browser) and POST /peer/invalidate (proxy → federation sibling): copies
// of URL older than Version are stale and must stop being served.
type InvalidateRequest struct {
	URL     string `json:"url"`
	Version int64  `json:"version"`
	// From is the sender proxy's cluster identity (its base URL) on
	// sibling fan-out; the receiver accepts the message only from known
	// cluster members and never re-forwards it (one hop, like cluster
	// fetches). Empty on proxy→browser invalidations, which authenticate
	// with the registration token instead.
	From string `json:"from,omitempty"`
}

// BadContentReport is the body of POST /report-bad: a requester whose
// watermark verification failed reports the document; the proxy, which knows
// which holder served the relay ticket, prunes that holder's index entry.
type BadContentReport struct {
	ClientID int    `json:"client_id"`
	URL      string `json:"url"`
	Ticket   string `json:"ticket"`
}

// Stats is the JSON served at GET /stats.
type Stats struct {
	Requests       int64 `json:"requests"`
	ProxyHits      int64 `json:"proxy_hits"`
	RemoteHits     int64 `json:"remote_hits"`
	OriginFetches  int64 `json:"origin_fetches"`
	FalsePeerHits  int64 `json:"false_peer_hits"`
	TamperRejected int64 `json:"tamper_rejected"`
	// Watermarks are derived on demand (watermark.go): Signed counts RSA
	// private-key operations, MemoHits demands answered without one.
	WatermarkSigned      int64 `json:"watermark_signed"`
	WatermarkMemoHits    int64 `json:"watermark_memo_hits"`
	WatermarkMemoEntries int   `json:"watermark_memo_entries"`
	RelayTimeouts        int64 `json:"relay_timeouts"`
	// Coalesced counts requests that attached to another request's
	// in-flight miss resolution (summed over outcomes).
	Coalesced int64 `json:"coalesced"`
	// DocTooLarge counts bodies rejected for exceeding MaxDocBytes.
	DocTooLarge int64 `json:"doc_too_large"`
	// Churn-resilience counters.
	OriginRetries   int64 `json:"origin_retries"`   // backoff retries against the origin
	HedgedWins      int64 `json:"hedged_wins"`      // origin beat a slow peer path past the soft deadline
	Heartbeats      int64 `json:"heartbeats"`       // POST /heartbeat received
	HeartbeatMisses int64 `json:"heartbeat_misses"` // peers tripped by the silence sweep
	BreakerTrips    int64 `json:"breaker_trips"`    // breakers opened (failures or silence)
	BreakerReadmits int64 `json:"breaker_readmits"` // half-open probes that re-admitted a peer
	Unregisters     int64 `json:"unregisters"`      // graceful departures
	// Breaker-state gauges at snapshot time.
	BreakerClosed      int `json:"breaker_closed"`
	BreakerOpen        int `json:"breaker_open"`
	BreakerHalfOpen    int `json:"breaker_half_open"`
	QuarantinedEntries int `json:"quarantined_entries"`

	// Batched index-protocol counters.
	IndexBatches          int64 `json:"index_batches"`           // delta sub-batches applied
	IndexBatchDeltas      int64 `json:"index_batch_deltas"`      // deltas those batches carried
	IndexGenGaps          int64 `json:"index_gen_gaps"`          // batch generation gaps observed
	IndexDigestMismatches int64 `json:"index_digest_mismatches"` // Bloom digests that disagreed
	IndexResyncPulls      int64 `json:"index_resync_pulls"`      // /peer/resync pulls issued

	// Federation counters (zero on an unfederated proxy). ClusterServes
	// counts sibling-originated cluster-hop requests and is deliberately
	// kept out of Requests/ProxyHits, so per-proxy hit ratios still
	// describe this proxy's own client population.
	ClusterFetches        int64 `json:"cluster_fetches"`         // docs relayed in from sibling proxies
	ClusterServes         int64 `json:"cluster_serves"`          // cluster-hop requests received
	ClusterServeHits      int64 `json:"cluster_serve_hits"`      // cluster-hop requests answered with a body
	ClusterLocateConfirms int64 `json:"cluster_locate_confirms"` // /peer/locate probes answered "held"
	ClusterLocateFPs      int64 `json:"cluster_locate_fps"`      // digest claims locate denied (Bloom FPs)
	DigestsSent           int64 `json:"digests_sent"`            // /peer/digest pushes delivered
	DigestsReceived       int64 `json:"digests_received"`        // sibling digests ingested
	// Federation is the membership snapshot (per-sibling digest age,
	// breaker state, FP counts); nil on an unfederated proxy.
	Federation *federation.Stats `json:"federation,omitempty"`

	// Background pipeline counters (zero with the producers disabled;
	// invalidation fan-out can fire regardless — any observed
	// modification enqueues it).
	Revalidations         int64 `json:"revalidations"`          // background conditional GETs completed
	RevalidationsChanged  int64 `json:"revalidations_changed"`  // revalidations that found a new version
	PrefetchPushes        int64 `json:"prefetch_pushes"`        // hot docs pushed into browser caches
	InvalidationsSent     int64 `json:"invalidations_sent"`     // invalidation jobs completed (all targets)
	InvalidationsReceived int64 `json:"invalidations_received"` // sibling invalidations ingested
	// Workqueue is the background work plane's queue snapshot.
	Workqueue *workqueue.Stats `json:"workqueue,omitempty"`

	// Disk-tier counters (zero without -datadir). ProxyHits above includes
	// DiskHits: a disk-tier hit is still a proxy-cache hit.
	DiskHits         int64   `json:"disk_hits"`           // /fetch served from the disk tier
	DiskDocs         int     `json:"disk_docs"`           // documents live on disk
	DiskBytes        int64   `json:"disk_bytes"`          // live body bytes on disk
	DiskWrites       int64   `json:"disk_writes"`         // bodies spilled
	DiskReads        int64   `json:"disk_reads"`          // bodies read back
	DiskCorrupt      int64   `json:"disk_corrupt"`        // records dropped for CRC/framing damage
	DiskEvictions    int64   `json:"disk_evictions"`      // retention-sweep evictions
	RestoredDocs     int     `json:"restored_docs"`       // docs re-seated by the last startup
	RestartToWarmSec float64 `json:"restart_to_warm_sec"` // 0 until warm

	IndexEntries int     `json:"index_entries"`
	CacheDocs    int     `json:"cache_docs"`
	CacheBytes   int64   `json:"cache_bytes"`
	Clients      int     `json:"clients"`
	UptimeSec    float64 `json:"uptime_sec"`
	// PeerHealth lists the per-peer health records (breaker state,
	// consecutive failures, EWMA latency, last-seen age).
	PeerHealth []PeerHealthStat `json:"peer_health,omitempty"`
}
