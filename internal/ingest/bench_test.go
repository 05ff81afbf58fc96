// Benchmarks for the wire protocol, the shard apply path, the checkpoint
// store and the full TCP ingest loop. scripts/bench.sh runs these (with the
// analysis-side benchmarks) and records the results as BENCH_<date>.json.
//
// TestBatchApplyAllocFree is the zero-allocation policy guard from
// DESIGN.md: the instrumented shard apply path must not allocate in steady
// state, so metrics can never become the ingest bottleneck.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// benchTrace returns a deterministic single-device trace (~20k records).
var benchTraceOnce sync.Once
var benchTraceVal *trace.DeviceTrace

func benchTrace() *trace.DeviceTrace {
	benchTraceOnce.Do(func() {
		benchTraceVal = synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	})
	return benchTraceVal
}

func BenchmarkFrameEncode(b *testing.B) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var frame []byte
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := enc.Encode(&dt.Records[i%len(dt.Records)])
		if err != nil {
			b.Fatal(err)
		}
		frame = appendFrame(frame[:0], int64(i), body)
		bytesOut += int64(len(frame))
	}
	b.SetBytes(bytesOut / int64(b.N))
}

func BenchmarkFrameDecode(b *testing.B) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var wire []byte
	n := len(dt.Records)
	for i := 0; i < n; i++ {
		body, err := enc.Encode(&dt.Records[i])
		if err != nil {
			b.Fatal(err)
		}
		wire = appendFrame(wire, int64(i), body)
	}
	b.SetBytes(int64(len(wire)) / int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	var fr *frameReader
	var dec *trace.RecordDecoder
	for i := 0; i < b.N; i++ {
		if i%n == 0 { // restart the stream (and the timestamp delta chain)
			fr = newFrameReader(bufio.NewReaderSize(bytes.NewReader(wire), 1<<16))
			dec = trace.NewRecordDecoder(dt.Start)
		}
		_, body, err := fr.next()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameDecodeAllocFree pins the steady-state allocation behaviour of
// the frame decode path. Two past leaks are covered: the per-call CRC
// scratch slice (now the frameReader's crcb field) and the body copy (now
// served zero-copy from the bufio buffer via the Peek fast path). With a
// buffer large enough to hold each frame, next()+Decode must not allocate
// at all.
func TestFrameDecodeAllocFree(t *testing.T) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var wire []byte
	n := len(dt.Records)
	for i := 0; i < n; i++ {
		body, err := enc.Encode(&dt.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		wire = appendFrame(wire, int64(i), body)
	}
	var fr *frameReader
	var dec *trace.RecordDecoder
	i := 0
	step := func() {
		if i%n == 0 { // restart the stream (and the timestamp delta chain)
			fr = newFrameReader(bufio.NewReaderSize(bytes.NewReader(wire), 1<<16))
			dec = trace.NewRecordDecoder(dt.Start)
		}
		_, body, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(body); err != nil {
			t.Fatal(err)
		}
		i++
	}
	step() // warm: reader and decoder buffers
	// The restart every n steps allocates a fresh reader; amortized over
	// 2n runs that is the only permitted allocation source, and it stays
	// well under 1 alloc per frame only if the per-frame path is clean.
	allocs := testing.AllocsPerRun(2*n, step)
	if allocs > 0.01 {
		t.Fatalf("frame decode allocates %.4f times per frame, want ~0", allocs)
	}
}

// benchApply returns a feeder for the shard apply path. The trace is
// pre-built, outside any timed region, into columnar batches of batchSize
// records; each call hands apply (shard.feed or shard.applyBatch) the
// next one at the shard's current high-water sequence, so every record is
// accepted. apply returns the batch to batchPool as production does; the
// feeder takes one back out, standing in for handleConn's next Get, so the
// pool stays at its steady size.
func benchApply(batchSize int, apply func(*shard, *recordBatch)) func() {
	dt := benchTrace()
	sh := newShard(0, 1, batchOpts(), newCounters(), newDeviceRegistry(), nil)
	var batches []*trace.RecordBatch
	for pos := 0; pos+batchSize <= len(dt.Records); pos += batchSize {
		cols := new(trace.RecordBatch)
		for i := pos; i < pos+batchSize; i++ {
			cols.Append(&dt.Records[i])
		}
		batches = append(batches, cols)
	}
	next := 0
	batch := &recordBatch{device: dt.Device}
	return func() {
		batch.firstSeq = sh.seqs[dt.Device]
		batch.cols = batches[next]
		batch.enqueuedNS = time.Now().UnixNano()
		apply(sh, batch)
		batchPool.Get()
		next = (next + 1) % len(batches) // cycle; state stays steady
	}
}

// benchApplyPair runs one side of the instrumentation budget pair.
func benchApplyPair(b *testing.B, apply func(*shard, *recordBatch)) {
	const batchSize = 128
	feed := benchApply(batchSize, apply)
	feed() // warm: accumulator, registry entry, ledger day keys
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	b.ReportMetric(float64(b.N)*batchSize/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkApplyBatchInstrumented / BenchmarkApplyBatchBare are the
// instrumentation budget pair, both over the production functions: the
// instrumented side is shard.feed (the latency and batch-size histograms,
// then applyBatch), the bare side is applyBatch alone — positional dedup,
// FeedBatch, per-device counters. The acceptance bar is 0 allocs/op and
// instrumented throughput within 3% of bare.
func BenchmarkApplyBatchInstrumented(b *testing.B) { benchApplyPair(b, (*shard).feed) }
func BenchmarkApplyBatchBare(b *testing.B)         { benchApplyPair(b, (*shard).applyBatch) }

// TestBatchApplyAllocFree enforces the zero-allocation instrumentation
// policy: in steady state a pooled RecordBatch through shard.feed
// (histograms, positional dedup, FeedBatch, counters) performs no heap
// allocation per batch.
func TestBatchApplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	feed := benchApply(128, (*shard).feed)
	for i := 0; i < 50; i++ { // settle pool, maps, bins and ledger day keys
		feed()
	}
	if allocs := testing.AllocsPerRun(200, feed); allocs > 0 {
		t.Fatalf("instrumented apply path allocates %.2f times per batch, want 0", allocs)
	}
}

// newBenchAccumulator returns a stream accumulator fed the first n records
// of dt — realistic per-device checkpoint state.
func newBenchAccumulator(dt *trace.DeviceTrace, n int) *analysis.StreamAccumulator {
	acc := analysis.NewStreamAccumulator(dt.Device, batchOpts())
	if n > len(dt.Records) {
		n = len(dt.Records)
	}
	for i := 0; i < n; i++ {
		acc.Feed(&dt.Records[i])
	}
	return acc
}

func benchSnapshot(nDevices int) *checkpoint.Snapshot {
	dt := benchTrace()
	var snap checkpoint.Snapshot
	for i := 0; i < nDevices; i++ {
		acc := newBenchAccumulator(dt, 2000)
		snap.Devices = append(snap.Devices, checkpoint.DeviceState{
			Device: dt.Device + "-" + string(rune('a'+i)),
			Seq:    2000,
			Acc:    acc.AppendState(nil),
		})
	}
	return &snap
}

func BenchmarkCheckpointSave(b *testing.B) {
	st, err := checkpoint.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	snap := benchSnapshot(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Save(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRestore(b *testing.B) {
	st, err := checkpoint.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.Save(benchSnapshot(16)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _, err := st.LoadLatest(nil)
		if err != nil {
			b.Fatal(err)
		}
		if snap == nil || len(snap.Devices) != 16 {
			b.Fatal("bad snapshot")
		}
	}
}

// benchFIN drives the session-completion path: each iteration runs 8
// concurrent short sessions to completion (dial, stream, FIN, ack) against
// a checkpointing server, so the durable variant's FIN group commit sees
// concurrent FINs to batch, exactly as production does. The periodic
// checkpoint loop is parked at an hour so the only fsyncs measured are the
// FIN-triggered ones. The server is recycled every 64 iterations (timer
// stopped) to keep the snapshot size — and so the per-FIN commit cost —
// steady instead of growing with b.N.
func benchFIN(b *testing.B, durable bool) {
	const lanes = 8
	dt := benchTrace()
	recs := dt.Records[:32]
	var s *Server
	shutdown := func() {
		if s == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}
	defer shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			shutdown()
			s = NewServer(Config{
				Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 256, BatchSize: 128,
				CheckpointDir: b.TempDir(), CheckpointInterval: time.Hour,
				DurableFIN: durable,
			})
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		var wg sync.WaitGroup
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(i, l int) {
				defer wg.Done()
				dev := fmt.Sprintf("%s-fin-%d-%d", dt.Device, i, l)
				if _, err := StreamTrace(SessionConfig{
					Addr: s.Addr().String(), Device: dev, Start: dt.Start,
				}, recs); err != nil {
					b.Error(err)
				}
			}(i, l)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*lanes), "fin_session_ms")
}

// BenchmarkFinDurable / BenchmarkFinVolatile are the -durable-fin cost
// pair: identical session workloads with the FIN-ack checkpoint commit on
// and off. scripts/bench.sh records the ns_per_op ratio as
// durable_fin_overhead_pct — the price of closing the completed-session
// loss window, quoted in DESIGN.md §10.
func BenchmarkFinDurable(b *testing.B)  { benchFIN(b, true) }
func BenchmarkFinVolatile(b *testing.B) { benchFIN(b, false) }

// BenchmarkIngestE2E measures whole-system throughput: 4 concurrent device
// sessions over real TCP into a 4-shard server, per iteration. The
// records/s metric is the fleet ingest rate scripts/bench.sh tracks.
func BenchmarkIngestE2E(b *testing.B) {
	fleet := synthgen.GenerateInMemory(synthgen.Small(4, 1))
	var total int64
	for _, dt := range fleet {
		total += int64(len(dt.Records))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewServer(Config{Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 256, BatchSize: 128})
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, dt := range fleet {
			wg.Add(1)
			go func(dt *trace.DeviceTrace) {
				defer wg.Done()
				if _, err := StreamTrace(SessionConfig{
					Addr: s.Addr().String(), Device: dt.Device, Start: dt.Start,
				}, dt.Records); err != nil {
					b.Error(err)
				}
			}(dt)
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.ReportMetric(float64(b.N)*float64(total)/b.Elapsed().Seconds(), "records/s")
}
