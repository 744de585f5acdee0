package sim

import (
	"fmt"

	"baps/internal/core"
	"baps/internal/stats"
)

// Result accumulates the metrics of one simulation run.
type Result struct {
	Trace        string
	Organization core.Organization
	RelativeSize float64
	Sizing       Sizing

	// Derived capacities, for reporting.
	ProxyCap        int64
	BrowserCapTotal int64

	// Request and byte accounting.
	Requests   int64
	TotalBytes int64

	LocalHits, ProxyHits, RemoteHits, Misses int64
	LocalBytes, ProxyBytes, RemoteBytes      int64

	// ParentHits counts requests served by the optional upper-level
	// proxy (the hierarchy extension). Per the paper's metrics these are
	// upstream traffic, not cache hits: they are excluded from HitRatio.
	ParentHits  int64
	ParentBytes int64

	// MemoryHitBytes counts hit bytes served from a memory tier at the
	// serving cache (browser, proxy or remote browser) — the §4.2 metric.
	MemoryHitBytes int64

	// Index staleness and document modification accounting.
	FalseIndexHits int64
	StaleLocal     int64
	StaleProxy     int64

	// Revalidations counts stale proxy copies rescued by background
	// revalidation (each cost one background origin fetch; zero with the
	// policy disabled).
	Revalidations int64

	// Index-maintenance traffic (§5): protocol messages from browsers to
	// the proxy's index and the entries they carried, summed over clients
	// for the whole replay (warm-up included — protocol chatter does not
	// pause during warm-up). Immediate ships one entry per message;
	// Periodic re-ships the full directory per flush; Batched ships only
	// the net deltas per flush.
	IndexMessages       int64
	IndexEntriesShipped int64

	// Latency accounting (seconds).
	TotalServiceSec     float64
	HitLatencySec       float64
	RemoteTransferSec   float64
	RemoteContentionSec float64
	RemoteConnections   int64
	RemoteBytesOnWire   int64
	// RemoteConnectionsOnWire counts bus-level transfers after warm-up
	// (equals RemoteConnections when WarmupFraction is 0).
	RemoteConnectionsOnWire int64

	// Per-request service-time distribution (seconds): median, tail
	// percentiles and maximum, from a streaming log-scale histogram.
	ServiceP50 float64
	ServiceP95 float64
	ServiceP99 float64
	ServiceMax float64
}

// Hits is the total number of cache hits at any layer.
func (r *Result) Hits() int64 { return r.LocalHits + r.ProxyHits + r.RemoteHits }

// HitBytes is the total bytes served from any cache layer.
func (r *Result) HitBytes() int64 { return r.LocalBytes + r.ProxyBytes + r.RemoteBytes }

// HitRatio is hits over requests (the paper's primary metric).
func (r *Result) HitRatio() float64 {
	return stats.Ratio(float64(r.Hits()), float64(r.Requests))
}

// ByteHitRatio is hit bytes over requested bytes.
func (r *Result) ByteHitRatio() float64 {
	return stats.Ratio(float64(r.HitBytes()), float64(r.TotalBytes))
}

// MemoryByteHitRatio is memory-tier hit bytes over requested bytes (§4.2).
func (r *Result) MemoryByteHitRatio() float64 {
	return stats.Ratio(float64(r.MemoryHitBytes), float64(r.TotalBytes))
}

// LocalHitRatio, ProxyHitRatio and RemoteHitRatio are the Figure 3
// breakdown components (fractions of all requests).
func (r *Result) LocalHitRatio() float64 {
	return stats.Ratio(float64(r.LocalHits), float64(r.Requests))
}

// ProxyHitRatio is the proxy component of the hit-ratio breakdown.
func (r *Result) ProxyHitRatio() float64 {
	return stats.Ratio(float64(r.ProxyHits), float64(r.Requests))
}

// RemoteHitRatio is the remote-browsers component of the breakdown.
func (r *Result) RemoteHitRatio() float64 {
	return stats.Ratio(float64(r.RemoteHits), float64(r.Requests))
}

// LocalByteHitRatio is the local-browser component of the byte breakdown.
func (r *Result) LocalByteHitRatio() float64 {
	return stats.Ratio(float64(r.LocalBytes), float64(r.TotalBytes))
}

// ProxyByteHitRatio is the proxy component of the byte breakdown.
func (r *Result) ProxyByteHitRatio() float64 {
	return stats.Ratio(float64(r.ProxyBytes), float64(r.TotalBytes))
}

// RemoteByteHitRatio is the remote-browsers component of the byte breakdown.
func (r *Result) RemoteByteHitRatio() float64 {
	return stats.Ratio(float64(r.RemoteBytes), float64(r.TotalBytes))
}

// RemoteCommSec is the total communication time spent on remote-browser
// transfers, including contention (§5).
func (r *Result) RemoteCommSec() float64 {
	return r.RemoteTransferSec + r.RemoteContentionSec
}

// RemoteCommFraction is remote communication time over total workload
// service time — the paper reports < 1.2 % across all traces.
func (r *Result) RemoteCommFraction() float64 {
	return stats.Ratio(r.RemoteCommSec(), r.TotalServiceSec)
}

// ContentionShare is bus contention over total remote communication time —
// the paper reports up to 0.12 %, i.e. no bursty hits to remote browsers.
func (r *Result) ContentionShare() float64 {
	return stats.Ratio(r.RemoteContentionSec, r.RemoteCommSec())
}

// Check verifies the run's conservation invariants; tests and the harness
// call it after every run.
func (r *Result) Check() error {
	if r.LocalHits+r.ProxyHits+r.RemoteHits+r.ParentHits+r.Misses != r.Requests {
		return fmt.Errorf("sim: hit classes sum %d != requests %d",
			r.LocalHits+r.ProxyHits+r.RemoteHits+r.ParentHits+r.Misses, r.Requests)
	}
	if r.HitBytes() > r.TotalBytes {
		return fmt.Errorf("sim: hit bytes %d exceed total %d", r.HitBytes(), r.TotalBytes)
	}
	if r.MemoryHitBytes > r.HitBytes() {
		return fmt.Errorf("sim: memory hit bytes %d exceed hit bytes %d", r.MemoryHitBytes, r.HitBytes())
	}
	if hr := r.HitRatio(); hr < 0 || hr > 1 {
		return fmt.Errorf("sim: hit ratio %g out of range", hr)
	}
	if r.TotalServiceSec < 0 || r.HitLatencySec < 0 || r.RemoteContentionSec < 0 {
		return fmt.Errorf("sim: negative time accounting")
	}
	if r.HitLatencySec > r.TotalServiceSec+1e-9 {
		return fmt.Errorf("sim: hit latency %g exceeds total service %g", r.HitLatencySec, r.TotalServiceSec)
	}
	if r.IndexMessages < 0 || r.IndexEntriesShipped < 0 {
		return fmt.Errorf("sim: negative index-message accounting")
	}
	if r.IndexEntriesShipped < r.IndexMessages {
		// Every counted message carries at least one entry.
		return fmt.Errorf("sim: %d index messages shipped only %d entries",
			r.IndexMessages, r.IndexEntriesShipped)
	}
	return nil
}
