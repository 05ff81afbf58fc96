package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// Input sizes. The pool is one stream of the first bulkStreamRecords
// records (about nine days) of each of bulkDevices devices, so its size
// and a stream's cost are the same on every seed. A stream takes about a
// tenth of a second, long enough that a scheduling stall or a garbage
// collection is a small part of it: with 8192-record streams the tail
// followed the host's load rather than the ingest path.
const (
	bulkDevices       = 8
	bulkDays          = 12
	bulkStreamRecords = 65536

	// ledgerRecords bounds the single-goroutine stage replay.
	ledgerRecords = 200_000
	// ledgerBatch matches the server's default hand-off batch size.
	ledgerBatch = 128
)

// serverOpts is the energy configuration ingest.Server uses by default;
// the references run with the same options.
func serverOpts() energy.Options {
	o := energy.DefaultOptions()
	o.KeepPackets = false
	return o
}

func bulkStreams(seed uint64, workers int) ([]stream, error) {
	dts, err := fixedDevices(seed, bulkDevices, bulkDays, bulkStreamRecords, workers)
	if err != nil {
		return nil, err
	}
	return fixedStreams(dts, bulkStreamRecords), nil
}

// ingestFixture is one ingest node with the segment store and checkpoints
// on, fed by e.nproc client connections.
type ingestFixture struct {
	e    *env
	srv  *ingest.Server
	dir  string // the server's segment and checkpoint dirs
	pool []stream
	// ref holds each pool stream's result computed record by record
	// through StreamAccumulator.Feed — the reference the server's columnar
	// FeedBatch path is held to.
	ref []*analysis.StreamResult
	dig string

	scr scrape // the server's exported families after drain
}

func setupBulk(e *env) (fixture, error) {
	pool, err := bulkStreams(e.seed, e.nproc)
	if err != nil {
		return nil, err
	}
	f := &ingestFixture{e: e, dir: filepath.Join(e.dir, "server"), pool: pool, dig: inputDigest(pool)}
	opts := serverOpts()
	f.ref = make([]*analysis.StreamResult, len(pool))
	for i := range pool {
		acc := analysis.NewStreamAccumulator(pool[i].name, opts)
		for j := range pool[i].recs {
			acc.Feed(&pool[i].recs[j])
		}
		f.ref[i] = acc.Finish()
	}
	f.srv = ingest.NewServer(ingest.Config{
		Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
		Shards:        e.nproc,
		CheckpointDir: filepath.Join(f.dir, "checkpoints"),
		SegmentDir:    filepath.Join(f.dir, "segments"),
	})
	return f, f.srv.Start()
}

func (f *ingestFixture) digest() string { return f.dig }

func (f *ingestFixture) close() error {
	// Shutdown after a completed measure returns the drained result at
	// once; after a failed set-up it drains an idle server.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := f.srv.Shutdown(ctx)
	return err
}

// sent is one stream delivery attempt.
type sent struct {
	pool   int
	device string
	ok     bool
}

// deliver streams st as device: hello, records, FIN, through the
// low-level client so each call can carry a span.
func deliver(addr, device string, st *stream, req int64, tr *tracer) error {
	t := tr.begin()
	cl, err := ingest.Dial(addr, device, st.start, 10*time.Second)
	tr.end("ingest.handshake", req, t)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	t = tr.begin()
	for j := range st.recs {
		if err := cl.Send(&st.recs[j]); err != nil {
			cl.CloseAbort() //nolint:errcheck // the send error is what matters
			return fmt.Errorf("send: %w", err)
		}
	}
	if err := cl.Flush(); err != nil {
		cl.CloseAbort() //nolint:errcheck // the flush error is what matters
		return fmt.Errorf("flush: %w", err)
	}
	tr.end("ingest.send", req, t)
	t = tr.begin()
	err = cl.Close()
	tr.end("ingest.fin", req, t)
	return err
}

func (f *ingestFixture) measure(until time.Time, tr *tracer) (*phase, error) {
	p := &phase{notes: map[string]any{}, start: time.Now(), clients: f.e.nproc}
	addr := f.srv.Addr().String()
	type connOut struct {
		ops  []opSample
		sent []sent
		errs []string
	}
	outs := make([]connOut, f.e.nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	ls := readLoopStats()
	for c := range outs {
		wg.Add(1)
		go func(o *connOut) {
			defer wg.Done()
			for time.Now().Before(until) {
				i := next.Add(1) - 1
				k := int(i % int64(len(f.pool)))
				st := &f.pool[k]
				dev := fmt.Sprintf("d%07d", i)
				t0 := time.Now()
				err := deliver(addr, dev, st, i+1, tr)
				d := time.Since(t0)
				o.sent = append(o.sent, sent{k, dev, err == nil})
				if err != nil {
					if len(o.errs) < 3 {
						o.errs = append(o.errs, err.Error())
					}
					continue
				}
				o.ops = append(o.ops, opSample{time.Now(), d, int64(len(st.recs))})
			}
		}(&outs[c])
	}
	wg.Wait()
	ls.finish(p)
	var all []sent
	for i := range outs {
		o := &outs[i]
		p.ops = append(p.ops, o.ops...)
		all = append(all, o.sent...)
		for _, e := range o.errs {
			fmt.Fprintln(os.Stderr, "perfbench: stream failed:", e)
		}
	}
	sort.Slice(p.ops, func(a, b int) bool { return p.ops[a].end.Before(p.ops[b].end) })
	for _, op := range p.ops {
		p.lat = append(p.lat, float64(op.lat)/1e6)
		p.records += op.records
	}
	p.attempted = int64(len(all))
	for _, s := range all {
		if !s.ok {
			p.failed++
		}
	}
	if err := f.verify(p, all); err != nil {
		return nil, err
	}
	p.notes["streams"] = len(all)
	return p, nil
}

// verify holds the drained server to the reference: every stream's record
// count, the merged fleet result and whole-span /query against the live
// headline. Each mismatch counts as a failed operation.
func (f *ingestFixture) verify(p *phase, all []sent) error {
	mismatch := func(format string, args ...any) {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: "+format+"\n", args...)
	}
	qrecs, qenergy, hrecs, henergy, err := f.querySpan()
	if err != nil {
		return err
	}
	if qrecs != hrecs || !relClose(qenergy, henergy, 1e-6, 1e-9) {
		mismatch("whole-span /query %d records %.9g J, /headline %d records %.9g J", qrecs, qenergy, hrecs, henergy)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := f.srv.Shutdown(ctx)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	want := analysis.NewStreamResult("fleet")
	var wantRecs int64
	okStreams := 0
	for _, s := range all {
		n := int64(len(f.pool[s.pool].recs))
		if got := f.srv.DeviceRecords(s.device); s.ok && got != n {
			mismatch("device %s: server holds %d records, sent %d", s.device, got, n)
		}
		if s.ok {
			okStreams++
			wantRecs += n
			want.Merge(f.ref[s.pool])
		}
	}
	if okStreams == len(all) { // a failed stream leaves a partial device behind
		st := f.srv.Stats(false)
		if st.Records != wantRecs {
			mismatch("server accepted %d records, sent %d", st.Records, wantRecs)
		}
		if !sameResult(final, want) {
			mismatch("drained result %.9g J (bg %.9f), reference %.9g J (bg %.9f)",
				final.Ledger.Total, final.Ledger.BackgroundFraction(), want.Ledger.Total, want.Ledger.BackgroundFraction())
		}
	}
	if f.scr, err = scrapeRegistry(f.srv.Metrics()); err != nil {
		return err
	}
	stored, err := dirBytes(f.dir)
	if err != nil {
		return err
	}
	p.storedBytes, p.storedRecords = stored, wantRecs
	return nil
}

// sameResult compares the headline quantities of two fleet results: energy
// and its background share to 1e-6 (merge order changes the last bits),
// byte counters and the span exactly.
func sameResult(got, want *analysis.StreamResult) bool {
	return relClose(got.Ledger.Total, want.Ledger.Total, 1e-6, 1e-9) &&
		relClose(got.Ledger.BackgroundFraction(), want.Ledger.BackgroundFraction(), 0, 1e-6) &&
		got.OffBytes == want.OffBytes && got.OnBytes == want.OnBytes &&
		got.Span == want.Span
}

// querySpan asks the node's admin surface for a /query over every
// timestamp, as scripts/smoke.sh does, and reads the live headline the
// /headline endpoint serves. The headline is read in process: when a Fig. 6
// spike score is infinite (a spike bin whose neighbours are empty) JSON
// encoding fails and GET /headline answers 200 with an empty body.
func (f *ingestFixture) querySpan() (qrecs int64, qenergy float64, hrecs int64, henergy float64, err error) {
	h := f.srv.Headline()
	var res tsq.Result
	url := fmt.Sprintf("http://%s/query?from=0&to=%d", f.srv.AdminAddr(), int64(1)<<62)
	if err = getJSON(url, &res); err != nil {
		return
	}
	return res.Records, res.TotalEnergyJ, h.Records, h.TotalEnergyJ, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(url string, v any) error {
	_, err := getJSONSize(url, v)
	return err
}

// getJSONSize is getJSON that also returns the body size.
func getJSONSize(url string, v any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return 0, fmt.Errorf("GET %s: %w", url, err)
	}
	return len(body), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

func (f *ingestFixture) layers(base, traced *phase, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	m["ingest.handshake_ms"] = median(sortedCopy(tr.durations("ingest.handshake")))
	m["ingest.fin_ms"] = median(sortedCopy(tr.durations("ingest.fin")))
	if traced.records > 0 {
		m["ingest.send_ns_per_record"] = tr.total("ingest.send") * 1e6 / float64(traced.records)
	}

	s := f.scr
	m["ingest.frame_decode_us"] = s.mean("ingest_frame_decode_seconds") * 1e6
	m["ingest.apply_wait_ms.p50"] = s.quantile("ingest_apply_latency_seconds", 0.5) * 1e3
	m["ingest.apply_wait_ms.p99"] = s.quantile("ingest_apply_latency_seconds", 0.99) * 1e3
	m["ingest.batch_records_mean"] = s.mean("ingest_batch_records")
	if r := s["ingest_segment_records_total"]; r > 0 {
		m["ingest.segment_bytes_per_record"] = s["ingest_segment_bytes_total"] / r
	}
	m["ingest.segments_sealed"] = s["ingest_segments_sealed_total"]
	m["ingest.segment_records_dropped"] = s["ingest_segment_records_dropped_total"]
	m["checkpoint.save_ms"] = s.mean("ingest_checkpoint_save_seconds") * 1e3
	m["checkpoint.saves"] = s["ingest_checkpoint_save_seconds_count"]
	m["checkpoint.bytes"] = s["ingest_checkpoint_bytes"]

	lg, err := f.stageLedger(tr)
	if err != nil {
		return nil, err
	}
	e2e := 0.0
	if base.records > 0 {
		e2e = float64(base.cpu.Nanoseconds()) / float64(base.records)
	}
	for k, v := range lg.metrics(e2e) {
		m[k] = v
	}
	return m, nil
}

// stageLedger is a single-goroutine replay of the workload's own streams
// through the public functions each ingest stage calls. Each stage is
// timed over a whole stream, so the clock is read a few times per stream
// rather than per record.
type stageLedger struct {
	records, sessions              int64
	decode, feed, segWrite, retire time.Duration
}

func (f *ingestFixture) stageLedger(tr *tracer) (stageLedger, error) {
	var lg stageLedger
	opts := serverOpts()
	dir := filepath.Join(f.e.dir, "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lg, err
	}
	var frames [][]byte
	var batches []trace.RecordBatch
	for k := 0; lg.records < ledgerRecords && k < len(f.pool); k++ {
		st := &f.pool[k]
		req := int64(-(k + 1))
		// Untimed preparation: the wire bodies the client would send and
		// the columnar batches the handler would hand to a shard.
		frames = frames[:0]
		enc := trace.NewRecordEncoder(st.start)
		for j := range st.recs {
			body, err := enc.Encode(&st.recs[j])
			if err != nil {
				return lg, err
			}
			frames = append(frames, append([]byte(nil), body...))
		}
		batches = batches[:0]
		for lo := 0; lo < len(st.recs); lo += ledgerBatch {
			var b trace.RecordBatch
			for j := lo; j < min(lo+ledgerBatch, len(st.recs)); j++ {
				b.Append(&st.recs[j])
			}
			batches = append(batches, b)
		}

		dec := trace.NewRecordDecoder(st.start)
		t0 := time.Now()
		for _, fr := range frames {
			if _, err := dec.Decode(fr); err != nil {
				return lg, fmt.Errorf("ledger decode: %w", err)
			}
		}
		d := time.Since(t0)
		lg.decode += d
		tr.add("trace.wire_decode", req, d)

		acc := analysis.NewStreamAccumulator(st.name, opts)
		t0 = time.Now()
		for i := range batches {
			acc.FeedBatch(&batches[i])
		}
		d = time.Since(t0)
		lg.feed += d
		tr.add("analysis.feed", req, d)

		file, err := os.Create(filepath.Join(dir, fmt.Sprintf("s%d.metr3", k)))
		if err != nil {
			return lg, err
		}
		t0 = time.Now()
		w, err := trace.NewColumnWriter(file, st.name, st.start)
		if err == nil {
			for j := range st.recs {
				if err = w.Write(&st.recs[j]); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = w.Flush()
		}
		d = time.Since(t0)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return lg, fmt.Errorf("ledger segment write: %w", err)
		}
		lg.segWrite += d
		tr.add("trace.segment_write", req, d)

		t0 = time.Now()
		blob := acc.Finish().AppendBinary(nil)
		d = time.Since(t0)
		if len(blob) == 0 {
			return lg, fmt.Errorf("ledger retire: empty result blob")
		}
		lg.retire += d
		tr.add("analysis.retire", req, d)

		lg.records += int64(len(st.recs))
		lg.sessions++
	}
	return lg, os.RemoveAll(dir)
}

// metrics turns the ledger into per-record stage costs plus the residual
// against e2e, the end-to-end CPU nanoseconds per record. Retire is paid
// once per session, so its share per record is retire/session times
// sessions/record; by construction the stages and the residual sum to e2e.
func (lg stageLedger) metrics(e2e float64) map[string]float64 {
	m := map[string]float64{"ingest.e2e_cpu_ns_per_record": e2e}
	if lg.records == 0 || lg.sessions == 0 {
		return m
	}
	n := float64(lg.records)
	m["trace.wire_decode_ns_per_record"] = float64(lg.decode) / n
	m["analysis.feed_ns_per_record"] = float64(lg.feed) / n
	m["trace.segment_write_ns_per_record"] = float64(lg.segWrite) / n
	m["analysis.retire_ns_per_session"] = float64(lg.retire) / float64(lg.sessions)
	m["ingest.stage_residual_ns_per_record"] = e2e - lg.stageSum()
	return m
}

// stageSum is the per-record cost of all stages, retire amortized.
func (lg stageLedger) stageSum() float64 {
	if lg.records == 0 {
		return 0
	}
	return float64(lg.decode+lg.feed+lg.segWrite+lg.retire) / float64(lg.records)
}
