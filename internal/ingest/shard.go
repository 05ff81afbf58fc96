package ingest

import (
	"hash/crc32"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/trace"
)

// ring is the in-process consistent-hash placement mapping device IDs to
// shards: a NodeRing over synthetic "shard-<i>" names (the vnode keys are
// unchanged from before the lift, so placements survive the refactor).
// Keeping the placement function consistent means a resharding (growing the
// pool, moving devices between processes) relocates only ~1/n of devices;
// the cluster tier reuses the same NodeRing for device→node assignment.
type ring struct {
	nr  *NodeRing
	idx map[string]int
}

func newRing(shards int) *ring {
	names := make([]string, shards)
	idx := make(map[string]int, shards)
	for s := 0; s < shards; s++ {
		names[s] = "shard-" + strconv.Itoa(s)
		idx[names[s]] = s
	}
	return &ring{nr: NewNodeRing(names), idx: idx}
}

// shard returns the shard index owning device.
func (r *ring) shard(device string) int { return r.idx[r.nr.Owner(device)] }

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// recordBatch is a chunk of decoded records for one device, carried from
// a connection handler to its shard. cols is a pooled columnar batch whose
// payload bytes live in its shared arena, so they survive the channel
// crossing; the shard returns it to batchPool after applying. Record i
// carries sequence number firstSeq+i — the handler only batches contiguous
// accepted frames. enqueuedNS stamps the hand-off so the shard can report
// queue latency (the backpressure gauge with a time axis).
type recordBatch struct {
	device     string
	firstSeq   int64
	cols       *trace.RecordBatch
	enqueuedNS int64
}

// batchPool recycles the columnar batches that carry accepted records from
// connection handlers to shard workers. Handlers Get, shard workers Put
// after FeedBatch; steady-state ingest therefore reuses a handful of
// arenas instead of allocating per record.
var batchPool = sync.Pool{New: func() any { return new(trace.RecordBatch) }}

// finReq asks the shard to finalize a device stream; the reply is the
// device's accepted-record count, which the handler echoes to the client
// as the FIN acknowledgement.
type finReq struct {
	device string
	reply  chan<- int64
}

// seqReq asks for a device's resume point (its accepted-record count); sent
// during the handshake so the ack can tell the client where to resume.
type seqReq struct {
	device string
	reply  chan<- int64
}

// skipReq advances a device's sequence past a poison record — one that
// repeatedly fails to decode — so the stream is not wedged forever. The
// record is lost (and counted), which is the explicit, bounded alternative
// to an unbounded reconnect loop.
type skipReq struct {
	device string
	seq    int64
}

// shardCkpt is one shard's contribution to a checkpoint: the durable state
// of every live device it owns, one ledger entry per finalized device, and
// a clone of its legacy (unattributed) retired aggregate — state restored
// from pre-ledger checkpoints, which has no per-device breakdown.
type shardCkpt struct {
	devices []checkpoint.DeviceState
	ledger  []checkpoint.RetiredRecord
	retired *analysis.StreamResult
}

// ledgerEntry is a shard's record of one finalized device: the sequence its
// stream closed at and the device's serialized final StreamResult. The blob
// is what a handoff receiver merges; the seq is what makes that merge dedup
// positionally like any live entry.
type ledgerEntry struct {
	seq  int64
	crc  uint32
	blob []byte
}

// retiredTransfer is one ledger entry adopted from a checkpoint handoff,
// with the blob decoded by the server (decode-before-mutate) so the shard
// worker only merges.
type retiredTransfer struct {
	device string
	seq    int64
	crc    uint32
	blob   []byte
	res    *analysis.StreamResult
}

// transferEntry is one device's state adopted from a checkpoint handoff:
// its accepted-record high-water mark and, for a stream that was still live
// on the dead node, its decoded accumulator (nil for finalized devices,
// whose contribution rides in the transfer's retired aggregate).
type transferEntry struct {
	device string
	seq    int64
	acc    *analysis.StreamAccumulator
}

// restoreReq installs transferred device state into a running shard. Unlike
// checkpoint restore at Start (single-threaded, before the worker runs),
// this races with live ingest, so it goes through the queue like everything
// else and the worker applies it with the same positional rule: an incoming
// seq wins only if it is strictly ahead of what this shard has accepted.
type restoreReq struct {
	entries []transferEntry
	// ledger carries the transfer's per-device retirement entries owned by
	// this shard; each is adopted with the same strictly-ahead rule as a
	// live entry, so a device that was re-streamed in full locally (the
	// lost-FIN-ack scenario) dedups to exactly-once.
	ledger  []retiredTransfer
	retired *analysis.StreamResult // legacy aggregate, merged once; nil on all but one request
	reply   chan<- transferReply
}

// transferReply reports what a shard did with a restoreReq.
type transferReply struct {
	accepted int   // entries adopted (incoming seq ahead of local)
	stale    int   // entries dropped (local state already at or past seq)
	records  int64 // record-count delta added to the accepted totals
}

// shardReq is one message on a shard's queue. Exactly one field is set.
type shardReq struct {
	batch   *recordBatch
	fin     *finReq
	seq     *seqReq
	skip    *skipReq
	restore *restoreReq
	query   chan<- *analysis.StreamResult // snapshot-merge request
	segSync chan<- error                  // flush open segments for a reader
	ckpt    chan<- shardCkpt
}

// shard owns a disjoint subset of devices. All state is confined to the
// shard goroutine; the bounded channel is both the hand-off and the
// backpressure mechanism (a full queue blocks the connection handler,
// which in turn stops reading and lets TCP flow control push back on the
// device).
type shard struct {
	id   int
	ch   chan shardReq
	opts energy.Options

	counters *counters
	reg      *deviceRegistry

	// Goroutine-confined state. seqs is the per-device accepted-record
	// high-water mark: the authoritative dedup/resume point, retained even
	// after a device finalizes so a replayed FIN or late duplicate stays
	// idempotent. It is only written here (and during single-threaded
	// checkpoint restore, before the worker starts). retired is the serving
	// aggregate (everything finalized, however it arrived); ledger holds the
	// per-device attribution behind it; retiredLegacy is the slice of retired
	// that has no attribution (v1 restores, legacy-blob transfers) and is
	// what checkpoints re-emit as the blind aggregate.
	live          map[string]*analysis.StreamAccumulator
	seqs          map[string]int64
	retired       *analysis.StreamResult
	retiredLegacy *analysis.StreamResult
	ledger        map[string]*ledgerEntry

	// seg, when non-nil, persists accepted records as queryable METR-3
	// segment files (goroutine-confined like the rest of the state).
	seg *segmentStore

	done chan struct{}
}

func newShard(id, queueDepth int, opts energy.Options, c *counters, reg *deviceRegistry, seg *segmentStore) *shard {
	return &shard{
		id:            id,
		ch:            make(chan shardReq, queueDepth),
		opts:          opts,
		counters:      c,
		reg:           reg,
		live:          map[string]*analysis.StreamAccumulator{},
		seqs:          map[string]int64{},
		retired:       analysis.NewStreamResult("fleet"),
		retiredLegacy: analysis.NewStreamResult("fleet"),
		ledger:        map[string]*ledgerEntry{},
		seg:           seg,
		done:          make(chan struct{}),
	}
}

// run is the shard worker loop. It exits when the channel is closed, after
// draining everything still queued and finalising every live device — the
// graceful-shutdown guarantee that no accepted record is dropped.
func (s *shard) run() {
	defer close(s.done)
	for req := range s.ch {
		switch {
		case req.batch != nil:
			s.feed(req.batch)
		case req.fin != nil:
			s.retire(req.fin.device)
			req.fin.reply <- s.seqs[req.fin.device]
		case req.seq != nil:
			req.seq.reply <- s.seqs[req.seq.device]
		case req.skip != nil:
			if s.seqs[req.skip.device] == req.skip.seq {
				s.seqs[req.skip.device] = req.skip.seq + 1
				s.counters.recordsSkipped.Add(1)
			}
		case req.restore != nil:
			req.restore.reply <- s.adopt(req.restore)
		case req.query != nil:
			req.query <- s.snapshot()
		case req.segSync != nil:
			if s.seg != nil {
				req.segSync <- s.seg.sync()
			} else {
				req.segSync <- nil
			}
		case req.ckpt != nil:
			req.ckpt <- s.checkpoint()
		}
	}
	for dev := range s.live {
		s.retire(dev)
	}
	if s.seg != nil {
		s.seg.closeAll()
	}
}

// retire finalizes a live device stream: its result is merged into the
// serving aggregate and recorded in the retirement ledger under the
// device's final sequence number. Idempotent — a re-sent FIN for an
// already-finalized device is a no-op.
func (s *shard) retire(dev string) {
	acc := s.live[dev]
	if acc == nil {
		return
	}
	res := acc.Finish()
	blob := res.AppendBinary(nil)
	s.retired.Merge(res)
	s.ledger[dev] = &ledgerEntry{seq: s.seqs[dev], crc: crc32.ChecksumIEEE(blob), blob: blob}
	delete(s.live, dev)
	if s.seg != nil {
		s.seg.seal(dev)
	}
}

// feed is the shard's apply step as production runs it: the two per-batch
// observations (queue latency and batch size) and then applyBatch.
// Observing per batch rather than per record amortizes the instrumentation
// over up to BatchSize records, keeping the apply path allocation-free and
// the overhead inside the noise floor.
//
//repolint:noalloc
func (s *shard) feed(b *recordBatch) {
	if b.enqueuedNS > 0 {
		s.counters.applySeconds.Observe(float64(time.Now().UnixNano()-b.enqueuedNS) / 1e9)
	}
	s.counters.batchRecords.Observe(float64(b.cols.Len()))
	s.applyBatch(b)
}

// applyBatch applies a batch positionally: a record is accepted only when
// its sequence number equals the device's high-water mark. Anything below
// is a replay from a resumed or stale connection (dropped, counted);
// anything above would be a gap the handler should have severed on and is
// dropped the same way. First connection to deliver a given seq wins —
// duplicates can never double-count energy. The handler guarantees the
// batch is one contiguous run starting at firstSeq, so the rule collapses
// to window arithmetic: everything before the high-water mark is a replay,
// everything from it on feeds the accumulator in one FeedBatch call and
// the segment store in one append. The batch goes back to batchPool
// afterwards.
//
//repolint:noalloc
func (s *shard) applyBatch(b *recordBatch) {
	n := b.cols.Len()
	exp := s.seqs[b.device]
	k := exp - b.firstSeq
	if k < 0 || k >= int64(n) {
		// Entirely behind the high-water mark (a resumed connection's
		// replay racing a newer one) or entirely ahead (a gap the handler
		// should have severed on): every record drops positionally.
		s.counters.duplicates.Add(int64(n))
		batchPool.Put(b.cols)
		return
	}
	if k > 0 {
		s.counters.duplicates.Add(k)
	}
	acc := s.live[b.device]
	if acc == nil {
		acc = analysis.NewStreamAccumulator(b.device, s.opts)
		s.live[b.device] = acc
	}
	view := b.cols.Slice(int(k), n)
	acc.FeedBatch(&view)
	if s.seg != nil {
		s.seg.appendBatch(b.device, &view)
	}
	accepted := int64(n) - k
	s.seqs[b.device] = exp + accepted
	s.counters.records.Add(accepted)
	s.reg.get(b.device).records.Add(accepted)
	batchPool.Put(b.cols)
}

// adopt applies a checkpoint handoff to the shard's live state. Each entry
// replaces local state only when its seq is strictly ahead — an accumulator
// at seq k is bit-determined by records 0..k-1, so whichever side has seen
// more of the (append-only, positionally-deduped) stream holds a superset
// of the other and replacement never loses accepted records. Entries at or
// behind the local high-water mark are stale replays of state this shard
// already has (or has surpassed via client retransmission) and are dropped,
// which makes re-delivering the same transfer idempotent.
func (s *shard) adopt(r *restoreReq) transferReply {
	var rep transferReply
	for _, e := range r.entries {
		cur := s.seqs[e.device]
		if e.seq <= cur {
			rep.stale++
			continue
		}
		if e.acc != nil {
			s.live[e.device] = e.acc
		} else {
			// Finalized on the dead node: its result arrives in the
			// transfer's retired aggregate, so any partial re-stream this
			// shard accumulated is superseded and discarded.
			delete(s.live, e.device)
		}
		delta := e.seq - cur
		s.seqs[e.device] = e.seq
		s.counters.records.Add(delta)
		s.reg.get(e.device).records.Add(delta)
		rep.accepted++
		rep.records += delta
	}
	for i := range r.ledger {
		e := &r.ledger[i]
		if s.ledger[e.device] != nil {
			// Retirement is terminal: this shard already holds the device's
			// finalized contribution (first retirement wins), so the entry is
			// a replay — the re-streamed-then-handed-off double-count window.
			rep.stale++
			continue
		}
		cur := s.seqs[e.device]
		if e.seq <= cur {
			// The device's records were all re-delivered here live (and will
			// retire locally when its session FINs); merging the blob on top
			// would double-count them.
			rep.stale++
			continue
		}
		s.retired.Merge(e.res)
		s.ledger[e.device] = &ledgerEntry{seq: e.seq, crc: e.crc, blob: e.blob}
		// Any partial local re-stream is a strict subset of the finalized
		// blob; discard it.
		delete(s.live, e.device)
		delta := e.seq - cur
		s.seqs[e.device] = e.seq
		s.counters.records.Add(delta)
		s.reg.get(e.device).records.Add(delta)
		rep.accepted++
		rep.records += delta
	}
	if r.retired != nil {
		s.retired.Merge(r.retired)
		s.retiredLegacy.Merge(r.retired)
	}
	return rep
}

// snapshot merges the retired aggregate with a Snapshot of every live
// device stream.
func (s *shard) snapshot() *analysis.StreamResult {
	agg := s.retired.Clone()
	for _, acc := range s.live {
		agg.Merge(acc.Snapshot())
	}
	return agg
}

// checkpoint serializes the shard's durable state: live accumulators with
// their sequence numbers, one ledger entry per finalized device, bare
// sequence numbers for devices in neither set (skip-advanced or
// v1-restored finals), and a clone of the legacy unattributed aggregate
// (the server merges and encodes those).
func (s *shard) checkpoint() shardCkpt {
	ck := shardCkpt{retired: s.retiredLegacy.Clone()}
	for dev, acc := range s.live {
		ck.devices = append(ck.devices, checkpoint.DeviceState{
			Device: dev, Seq: s.seqs[dev], Acc: acc.AppendState(nil),
		})
	}
	for dev, seq := range s.seqs {
		if s.live[dev] == nil && s.ledger[dev] == nil {
			ck.devices = append(ck.devices, checkpoint.DeviceState{Device: dev, Seq: seq})
		}
	}
	for dev, e := range s.ledger {
		ck.ledger = append(ck.ledger, checkpoint.RetiredRecord{
			Device: dev, Seq: e.seq, CRC: e.crc, Blob: e.blob,
		})
	}
	return ck
}

// depth reports the current queue occupancy (an observability gauge; racy
// by nature, exact enough for monitoring).
func (s *shard) depth() int { return len(s.ch) }
