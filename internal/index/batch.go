package index

// Delta is one incremental directory change inside a batch: an upsert of the
// embedded entry, or (Remove) the withdrawal of the entry's document. Batches
// of deltas are the wire unit of the batched index-update protocol: a browser
// coalesces its cache churn locally and ships only the net changes, instead
// of one message per change (Immediate) or the full directory (Periodic).
type Delta struct {
	Entry
	Remove bool
}

// ApplyBatch applies a client's deltas in order. Entry.Client is overwritten
// with client on every delta, so a batch can only ever mutate its sender's
// directory.
func (x *Index) ApplyBatch(client int, deltas []Delta) {
	for _, d := range deltas {
		if d.Remove {
			x.Remove(client, d.Doc)
		} else {
			e := d.Entry
			e.Client = client
			x.Add(e)
		}
	}
}

// ApplyBatch applies a client's deltas with one lock acquisition per shard:
// each shard's group is applied in batch order under a single Lock, instead
// of per-entry Add/Remove round trips through the shard mutex. Deltas for
// different documents land on different shards, so a concurrent reader can
// observe the batch partially applied across shards — the same visibility the
// one-message-at-a-time protocols already have.
func (s *Sharded) ApplyBatch(client int, deltas []Delta) {
	if len(deltas) == 0 {
		return
	}
	for si, sh := range s.shards {
		locked := false
		for _, d := range deltas {
			if s.shardOf(d.Doc) != si {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			if d.Remove {
				sh.idx.Remove(client, d.Doc)
			} else {
				e := d.Entry
				e.Client = client
				sh.idx.Add(e)
			}
		}
		if locked {
			sh.mu.Unlock()
		}
	}
}
