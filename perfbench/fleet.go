package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/cluster"
	"netenergy/internal/ingest"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

const (
	hourUS = trace.Timestamp(3600 * 1e6)
	dayUS  = 24 * hourUS

	// Fixture devices hold the same number of records (about five days)
	// on every seed.
	fleetDevices = 8
	fleetDays    = 7
	fleetRecords = 36_000

	// The live device writes one client batch frame per tick, so the
	// nodes apply it in whole chunks and every state a snapshot can see is
	// a chunk boundary.
	trickleChunk   = 64
	trickleEvery   = 200 * time.Millisecond
	trickleDays    = 3
	trickleRecords = 12_000 // 37 s of trickle at 320 records/s

	// decompReps is how often the traced run re-issues each distinct query
	// (and each batch report) to split its time across the layers.
	decompReps = 5
)

// classMix is the class make-up of every 20 consecutive dashboard
// requests. Classes rank headline < narrow < apps < wide in latency, so
// with 35% headline and narrow requests and 35% apps queries the run's
// median latency falls inside the apps class — a scan-bound query whose
// cost follows the data and the code — rather than in the few
// milliseconds of fixed overhead a narrow query is, where scheduling and
// garbage-collection debt left by the previous request dominate; wide
// queries, 30%, set the tail.
var classMix = []struct {
	class string
	n     int
}{{"wide", 6}, {"narrow", 4}, {"apps", 7}, {"headline", 3}}

// Each narrow query draws a fresh typical hour and each apps query one of
// appsTriples seeded app sets, so the class medians average over many
// parameters instead of following a handful the seed happened to pick.
const (
	sequenceBlocks = 50 // sequence length in blocks of classMix
	appsTriples    = 8
	// decompSpecs is how many distinct queries per class the traced run
	// splits across layers.
	decompSpecs = 3
)

// blockLen is the number of requests in one block of classMix.
func blockLen() int {
	n := 0
	for _, m := range classMix {
		n += m.n
	}
	return n
}

// fleetClasses lists the query classes in report order.
var fleetClasses = []string{"wide", "narrow", "apps", "headline"}

// querySpec is one dashboard request and, for tsq classes, its reference.
type querySpec struct {
	class string
	q     tsq.Query
	ref   *queryRef
}

// queryRef is a query's answer computed from the in-memory records through
// WindowedAccumulator.Feed, restricted and app-filtered record by record
// (the rule of TestQueryMatchesRestrictedBatchRun).
type queryRef struct {
	records int64
	devices int
	total   float64
	apps    map[uint32]float64
	windows map[int64]*windowRef
}

type windowRef struct {
	energy float64
	apps   map[uint32]float64
}

// fleetNode is one ingest node of the fixture cluster.
type fleetNode struct {
	id     string
	srv    *ingest.Server
	segDir string
}

// answer is one dashboard response kept for checking after the loop.
type answer struct {
	spec     *querySpec
	res      *cluster.FleetQueryResult
	head     *cluster.FleetHeadline
	flushed  int64 // trickle chunks flushed when a headline pull returned
	err      error
	bodySize int
}

type fleetFixture struct {
	e       *env
	nodes   []*fleetNode
	agg     *cluster.Aggregator
	aggSrv  *http.Server
	aggURL  string
	seq     []*querySpec // the request sequence, repeated as needed
	records int64        // fixture records
	energy  float64      // fixture energy, the headline reference
	dig     string

	// The live device: its client, its records and the energy a snapshot
	// shows after k whole chunks (prefix[k]).
	live    *ingest.Client
	trickle stream
	prefix  []float64
	flushed atomic.Int64

	answers []answer // from the last measure
}

// fleetInputs generates the fixture fleet, its time span and the live
// device's records, which start two days after the span.
func fleetInputs(seed uint64, workers int) (dts []*trace.DeviceTrace, span [2]trace.Timestamp, live stream, err error) {
	if dts, err = fixedDevices(seed, fleetDevices, fleetDays, fleetRecords, workers); err != nil {
		return nil, span, live, err
	}
	span = [2]trace.Timestamp{1<<63 - 1, -1 << 63}
	for _, dt := range dts {
		for i := range dt.Records {
			span[0] = min(span[0], dt.Records[i].TS)
			span[1] = max(span[1], dt.Records[i].TS)
		}
	}
	return dts, span, trickleStream(seed, (span[1]/dayUS+2)*dayUS), nil
}

func setupFleet(e *env) (fixture, error) {
	dts, span, trickle, err := fleetInputs(e.seed, e.nproc)
	if err != nil {
		return nil, err
	}
	f := &fleetFixture{e: e, trickle: trickle}
	ok := false
	defer func() {
		if !ok {
			f.close() //nolint:errcheck // the set-up error is reported
		}
	}()
	for i := 0; i < 2; i++ {
		n := &fleetNode{id: fmt.Sprintf("n%d", i+1), segDir: filepath.Join(e.dir, fmt.Sprintf("n%d-segments", i+1))}
		n.srv = ingest.NewServer(ingest.Config{
			Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", NodeID: n.id,
			Shards:     max(1, e.nproc/2), // the two nodes share nproc shards
			SegmentDir: n.segDir, CheckpointDir: filepath.Join(e.dir, n.id+"-checkpoints"),
		})
		if err := n.srv.Start(); err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	addrs := []string{f.nodes[0].srv.Addr().String(), f.nodes[1].srv.Addr().String()}
	ring := ingest.NewNodeRing(addrs)

	streams := traceStreams(dts)
	if err := loadStreams(ring, streams, e.nproc); err != nil {
		return nil, fmt.Errorf("load fixture: %w", err)
	}
	opts := serverOpts()
	for _, dt := range dts {
		f.records += int64(len(dt.Records))
		acc := analysis.NewStreamAccumulator(dt.Device, opts)
		for i := range dt.Records {
			acc.Feed(&dt.Records[i])
		}
		f.energy += acc.Finish().Ledger.Total
	}

	acc := analysis.NewStreamAccumulator(f.trickle.name, opts)
	f.prefix = []float64{0}
	for lo := 0; lo+trickleChunk <= len(f.trickle.recs); lo += trickleChunk {
		for j := lo; j < lo+trickleChunk; j++ {
			acc.Feed(&f.trickle.recs[j])
		}
		f.prefix = append(f.prefix, acc.Snapshot().Ledger.Total)
	}
	cl, err := ingest.Dial(ring.Owner(f.trickle.name), f.trickle.name, f.trickle.start, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial live device: %w", err)
	}
	f.live = cl
	f.dig = inputDigest(append(streams, f.trickle))

	members := make([]cluster.Member, len(f.nodes))
	for i, n := range f.nodes {
		members[i] = cluster.Member{ID: n.id, Stream: addrs[i], Admin: n.srv.AdminAddr().String()}
	}
	f.agg = cluster.NewAggregator(cluster.AggregatorConfig{
		Prober: cluster.NewProber(cluster.ProberConfig{Members: members}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.aggSrv = &http.Server{Handler: f.agg.Mux()}
	go f.aggSrv.Serve(ln) //nolint:errcheck // ErrServerClosed at close
	f.aggURL = "http://" + ln.Addr().String()

	f.seq = querySequence(e.seed, dts, span)
	if h := f.agg.PullOnce(); h.NodesLive != len(f.nodes) {
		return nil, fmt.Errorf("aggregator sees %d of %d nodes", h.NodesLive, len(f.nodes))
	}
	ok = true
	return f, nil
}

// loadStreams delivers whole streams to their ring owners over up to
// conns connections at once.
func loadStreams(ring *ingest.NodeRing, ss []stream, conns int) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ss) || errs[c] != nil {
					return
				}
				errs[c] = deliver(ring.Owner(ss[i].name), ss[i].name, &ss[i], 0, nil)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// trickleStream builds the live device's records: consecutive
// synthetic device traces laid end to end from start on, until there are
// enough records to outlast a run.
func trickleStream(seed uint64, start trace.Timestamp) stream {
	s := stream{name: "live", start: start}
	cfg := genConfig(seed^0x5eed, 1, trickleDays)
	for u := 0; len(s.recs) < trickleRecords && u < 64; u++ {
		cfg.Start = start + trace.Timestamp(u)*trickleDays*dayUS
		s.recs = append(s.recs, synthgen.GenerateDevice(cfg, u).Records...)
	}
	return s
}

// querySequence builds the seeded dashboard request sequence over the
// fixture span, with its references. Narrow queries cover whole clock
// hours of typical activity — non-empty hours whose fixture record count
// lies in the middle 40% of such hours — so their cost follows the system
// rather than how busy the chosen hours were. Requests with equal
// parameters share one spec.
func querySequence(seed uint64, dts []*trace.DeviceTrace, span [2]trace.Timestamp) []*querySpec {
	rng := rand.New(rand.NewSource(int64(seed)))
	var apps []uint32
	seen := map[uint32]bool{}
	perHour := map[trace.Timestamp]int{}
	for _, dt := range dts {
		for i := range dt.Records {
			r := &dt.Records[i]
			perHour[r.TS/hourUS]++
			if r.Type == trace.RecPacket && !seen[r.App] {
				seen[r.App] = true
				apps = append(apps, r.App)
			}
		}
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	var hours []trace.Timestamp
	for h := span[0] / hourUS; h <= span[1]/hourUS; h++ {
		if perHour[h] > 0 {
			hours = append(hours, h)
		}
	}
	sort.SliceStable(hours, func(i, j int) bool { return perHour[hours[i]] < perHour[hours[j]] })
	typical := hours[len(hours)*3/10 : max(len(hours)*7/10, len(hours)*3/10+1)]

	whole := tsq.Query{From: span[0], To: span[1] + 1}
	wide := &querySpec{class: "wide", q: whole}
	wide.q.Window, wide.q.TopN = hourUS, 10
	var triples []*querySpec
	for i := 0; i < appsTriples; i++ {
		q := whole
		q.Window = dayUS
		for _, k := range rng.Perm(len(apps))[:min(3, len(apps))] {
			q.Apps = append(q.Apps, apps[k])
		}
		sort.Slice(q.Apps, func(i, j int) bool { return q.Apps[i] < q.Apps[j] })
		triples = append(triples, &querySpec{class: "apps", q: q})
	}
	narrow := map[trace.Timestamp]*querySpec{}
	headline := &querySpec{class: "headline"}

	var seq []*querySpec
	for b := 0; b < sequenceBlocks; b++ {
		var block []*querySpec
		for _, m := range classMix {
			for i := 0; i < m.n; i++ {
				switch m.class {
				case "wide":
					block = append(block, wide)
				case "narrow":
					h := typical[rng.Intn(len(typical))]
					if narrow[h] == nil {
						narrow[h] = &querySpec{class: "narrow", q: tsq.Query{From: h * hourUS, To: (h + 1) * hourUS}}
					}
					block = append(block, narrow[h])
				case "apps":
					block = append(block, triples[rng.Intn(len(triples))])
				case "headline":
					block = append(block, headline)
				}
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	for _, s := range seq {
		if s.class != "headline" && s.ref == nil {
			s.ref = restrictedRef(dts, s.q)
		}
	}
	return seq
}

// restrictedRef computes q's reference answer from the in-memory records.
func restrictedRef(dts []*trace.DeviceTrace, q tsq.Query) *queryRef {
	keep := map[uint32]bool{}
	for _, a := range q.Apps {
		keep[a] = true
	}
	ref := &queryRef{apps: map[uint32]float64{}, windows: map[int64]*windowRef{}}
	opts := serverOpts()
	for _, dt := range dts {
		acc := analysis.NewWindowedAccumulator(dt.Device, q.Window, opts)
		var fed int64
		// Records are in timestamp order: only [lo, hi) can be in range.
		recs := dt.Records
		lo := sort.Search(len(recs), func(i int) bool { return recs[i].TS >= q.From })
		hi := sort.Search(len(recs), func(i int) bool { return recs[i].TS >= q.To })
		for i := lo; i < hi; i++ {
			r := &recs[i]
			if len(keep) > 0 && r.Type != trace.RecScreen && !keep[r.App] {
				continue
			}
			acc.Feed(r)
			fed++
		}
		if fed == 0 {
			continue
		}
		ref.records += fed
		ref.devices++
		for _, win := range acc.Finish() {
			led := win.Res.Ledger
			ref.total += led.Total
			var w *windowRef
			if q.Window > 0 {
				if w = ref.windows[int64(win.Start)]; w == nil {
					w = &windowRef{apps: map[uint32]float64{}}
					ref.windows[int64(win.Start)] = w
				}
				w.energy += led.Total
			}
			//repolint:ordered per-key sums are order-insensitive
			for app, e := range led.ByApp {
				ref.apps[app] += e
				if w != nil {
					w.apps[app] += e
				}
			}
		}
	}
	return ref
}

// checkQuery compares a fleet answer with its reference and returns the
// first difference ("" when they agree). Energies agree to 1e-6 relative:
// the two paths sum in different orders.
func checkQuery(ref *queryRef, q tsq.Query, res *tsq.Result) string {
	near := func(a, b float64) bool { return relClose(a, b, 1e-6, 1e-9) }
	if res.Records != ref.records {
		return fmt.Sprintf("records %d, want %d", res.Records, ref.records)
	}
	if res.Devices != ref.devices {
		return fmt.Sprintf("devices %d, want %d", res.Devices, ref.devices)
	}
	if !near(res.TotalEnergyJ, ref.total) {
		return fmt.Sprintf("total energy %.9g J, want %.9g", res.TotalEnergyJ, ref.total)
	}
	if msg := checkRows(res.Apps, ref.apps, q.TopN); msg != "" {
		return "apps: " + msg
	}
	if len(res.Windows) != len(ref.windows) {
		return fmt.Sprintf("%d windows, want %d", len(res.Windows), len(ref.windows))
	}
	for _, w := range res.Windows {
		rw := ref.windows[w.StartUS]
		if rw == nil {
			return fmt.Sprintf("unexpected window at %d", w.StartUS)
		}
		if !near(w.EnergyJ, rw.energy) {
			return fmt.Sprintf("window %d energy %.9g J, want %.9g", w.StartUS, w.EnergyJ, rw.energy)
		}
		if msg := checkRows(w.Apps, rw.apps, q.TopN); msg != "" {
			return fmt.Sprintf("window %d apps: %s", w.StartUS, msg)
		}
	}
	return ""
}

// checkRows holds app rows to the reference energies; with topn > 0 only
// the count is cut, so every returned row must still match.
func checkRows(rows []tsq.AppRow, want map[uint32]float64, topn int) string {
	n := len(want)
	if topn > 0 {
		n = min(n, topn)
	}
	if len(rows) != n {
		return fmt.Sprintf("%d rows, want %d", len(rows), n)
	}
	for _, r := range rows {
		e, ok := want[r.App]
		if !ok {
			return fmt.Sprintf("unexpected app %d", r.App)
		}
		if !relClose(r.EnergyJ, e, 1e-6, 1e-9) {
			return fmt.Sprintf("app %d energy %.9g J, want %.9g", r.App, r.EnergyJ, e)
		}
	}
	return ""
}

// checkHeadline holds one PullOnce result to the fixture plus some whole
// number of live chunks, no more than were flushed when it returned.
func (f *fleetFixture) checkHeadline(h *cluster.FleetHeadline, flushed int64) string {
	if h.NodesLive != len(f.nodes) || len(h.Nodes) != len(f.nodes) {
		return fmt.Sprintf("%d live nodes, %d contributions, want %d", h.NodesLive, len(h.Nodes), len(f.nodes))
	}
	extra := h.Records - f.records
	if extra < 0 || extra > flushed*trickleChunk {
		return fmt.Sprintf("records %d, want %d plus at most %d live", h.Records, f.records, flushed*trickleChunk)
	}
	for k := int64(0); k <= flushed && k < int64(len(f.prefix)); k++ {
		if relClose(h.TotalEnergyJ, f.energy+f.prefix[k], 1e-6, 1e-9) {
			return ""
		}
	}
	return fmt.Sprintf("energy %.9g J matches no live prefix of the fixture's %.9g J", h.TotalEnergyJ, f.energy)
}

func (f *fleetFixture) digest() string { return f.dig }

// runTrickle writes live chunks until stop closes or the records run out.
func (f *fleetFixture) runTrickle(stop <-chan struct{}) error {
	t := time.NewTicker(trickleEvery)
	defer t.Stop()
	k := int(f.flushed.Load())
	for {
		select {
		case <-stop:
			return nil
		case <-t.C:
		}
		lo := k * trickleChunk
		if lo+trickleChunk > len(f.trickle.recs) {
			return nil
		}
		for j := lo; j < lo+trickleChunk; j++ {
			if err := f.live.Send(&f.trickle.recs[j]); err != nil {
				return fmt.Errorf("live send: %w", err)
			}
		}
		if err := f.live.Flush(); err != nil {
			return fmt.Errorf("live flush: %w", err)
		}
		k++
		f.flushed.Store(int64(k))
	}
}

// ask issues one dashboard request and returns its latency.
func (f *fleetFixture) ask(s *querySpec, req int64, tr *tracer) (answer, time.Duration) {
	a := answer{spec: s}
	t0 := time.Now()
	if s.class == "headline" {
		h := f.agg.PullOnce()
		d := time.Since(t0)
		tr.add("cluster.pull", req, d)
		a.head, a.flushed = &h, f.flushed.Load()
		return a, d
	}
	var res cluster.FleetQueryResult
	a.bodySize, a.err = getJSONSize(f.aggURL+"/query?"+s.q.Values(true).Encode(), &res)
	d := time.Since(t0)
	tr.add("cluster.query."+s.class, req, d)
	a.res = &res
	return a, d
}

func (f *fleetFixture) measure(until time.Time, tr *tracer) (*phase, error) {
	// Rate windows are whole blocks of classMix: a second of the loop holds
	// a varying share of wide queries, which match most of the records.
	p := &phase{classes: map[string][]float64{}, notes: map[string]any{}, clients: 1, blockOps: blockLen()}
	stop := make(chan struct{})
	trickleErr := make(chan error, 1)
	go func() { trickleErr <- f.runTrickle(stop) }()

	f.answers = f.answers[:0]
	var lats []time.Duration
	var ends []time.Time
	ls := readLoopStats()
	p.start = time.Now()
	for i := 0; time.Now().Before(until); i++ {
		s := f.seq[i%len(f.seq)]
		a, d := f.ask(s, int64(i+1), tr)
		lats = append(lats, d)
		ends = append(ends, time.Now())
		p.lat = append(p.lat, float64(d)/1e6)
		p.classes[s.class] = append(p.classes[s.class], float64(d)/1e6)
		f.answers = append(f.answers, a)
	}
	ls.finish(p)
	close(stop)
	if err := <-trickleErr; err != nil {
		return nil, err
	}

	p.attempted = int64(len(f.answers))
	for i, a := range f.answers {
		msg := ""
		var records int64
		switch {
		case a.err != nil:
			msg = a.err.Error()
		case a.head != nil:
			msg = f.checkHeadline(a.head, a.flushed)
			records = a.head.Records
		default:
			if a.res.NodesLive != len(f.nodes) || len(a.res.Nodes) != len(f.nodes) {
				msg = fmt.Sprintf("partial answer from %d of %d nodes", len(a.res.Nodes), len(f.nodes))
			} else {
				msg = checkQuery(a.spec.ref, a.spec.q, &a.res.Result)
			}
			records = a.res.Records
		}
		if msg != "" {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s query mismatch: %s\n", a.spec.class, msg)
			continue
		}
		p.ops = append(p.ops, opSample{ends[i], lats[i], records})
		p.records += records
	}
	var stored, ckpt int64
	for _, n := range f.nodes {
		sb, err := dirBytes(n.segDir)
		if err != nil {
			return nil, err
		}
		stored += sb
		cb, err := dirBytes(filepath.Join(f.e.dir, n.id+"-checkpoints"))
		if err != nil {
			return nil, err
		}
		ckpt += cb
	}
	p.storedBytes = stored + ckpt
	p.storedRecords = f.records + f.flushed.Load()*trickleChunk
	p.notes["live_records"] = f.flushed.Load() * trickleChunk
	for c, xs := range p.classes {
		p.notes[c+"_p50_ms"] = median(sortedCopy(xs))
	}
	return p, nil
}

func (f *fleetFixture) close() error {
	var errs []error
	if f.live != nil {
		f.live.CloseAbort() //nolint:errcheck // the device stays un-FIN'd by design
	}
	if f.aggSrv != nil {
		errs = append(errs, f.aggSrv.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, n := range f.nodes {
		if _, err := n.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// layers splits each distinct query's time across the layers by
// re-issuing it piece by piece: Aggregator.QueryFleet, each node's /query,
// the tsq engine on each node's directory, a bare scan of every segment
// file and the windowed feed over the scanned batches.
func (f *fleetFixture) layers(base, traced *phase, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	for _, c := range fleetClasses {
		m["query."+c+"_p50_ms"] = median(sortedCopy(traced.classes[c]))
	}
	type perClass struct {
		fanout, querySelf, engineSelf, scan, feed, bytes          []float64
		blocksScanned, blocksSkipped, rowsScanned, rowsMatched, n float64
	}
	pc := map[string]*perClass{}
	for _, c := range fleetClasses {
		pc[c] = &perClass{}
	}
	for _, a := range f.answers {
		if a.res == nil {
			continue
		}
		c := pc[a.spec.class]
		sc := a.res.Scan
		c.blocksScanned += float64(sc.BlocksScanned)
		c.blocksSkipped += float64(sc.BlocksSkipped)
		c.rowsScanned += float64(sc.RecordsScanned)
		c.rowsMatched += float64(sc.RecordsMatched)
		c.n++
	}

	var liveTail []float64
	req := int64(1 << 40)
	done := map[*querySpec]bool{}
	perSpec := map[string]int{}
	for _, s := range f.seq {
		if s.class == "headline" || done[s] || perSpec[s.class] == decompSpecs {
			continue
		}
		done[s] = true
		perSpec[s.class]++
		// One unmeasured request first, so every piece below is timed
		// warm. The pieces run one after another, not nested, so a self
		// time is a difference of two separately timed pieces; each piece
		// is taken as its fastest repetition, the figure least disturbed
		// by whatever else the machine runs, so the difference is not
		// swamped by the noise of both sides.
		if a, _ := f.ask(s, req, nil); a.err != nil {
			return nil, a.err
		}
		var fleet, node, dir, scan, live, feed, size []float64
		nq := s.q
		nq.TopN = 0 // the aggregator asks nodes for every app row
		for rep := 0; rep < decompReps; rep++ {
			req++
			a, _ := f.ask(s, req, tr)
			if a.err != nil {
				return nil, a.err
			}
			size = append(size, float64(a.bodySize))
			t := time.Now()
			if _, err := f.agg.QueryFleet(nq); err != nil {
				return nil, err
			}
			fleet = append(fleet, ms(tr.end("cluster.query_fleet", req, t), tr))
			var nodeMS, dirMS, scanMS, liveMS, feedMS float64
			for _, n := range f.nodes {
				t := time.Now()
				var res tsq.Result
				if err := getJSON("http://"+n.srv.AdminAddr().String()+"/query?"+nq.Values(false).Encode(), &res); err != nil {
					return nil, err
				}
				nodeMS += ms(tr.end("ingest.query", req, t), tr)

				t = time.Now()
				if _, err := (tsq.Engine{Opts: serverOpts()}).QueryDir(n.segDir, nq); err != nil {
					return nil, err
				}
				dirMS += ms(tr.end("tsq.query_dir", req, t), tr)

				sealed, lt, fd, err := scanDir(n.segDir, nq, req, tr)
				if err != nil {
					return nil, err
				}
				scanMS += sealed
				liveMS += lt
				feedMS += fd
			}
			node = append(node, nodeMS)
			dir = append(dir, dirMS)
			scan = append(scan, scanMS)
			live = append(live, liveMS)
			feed = append(feed, feedMS)
		}
		med := func(xs []float64) float64 { return sortedCopy(xs)[0] }
		c := pc[s.class]
		c.fanout = append(c.fanout, med(fleet)-med(node))
		c.querySelf = append(c.querySelf, med(node)-med(dir))
		c.engineSelf = append(c.engineSelf, med(dir)-med(scan)-med(live)-med(feed))
		c.scan = append(c.scan, med(scan))
		c.feed = append(c.feed, med(feed))
		c.bytes = append(c.bytes, med(size))
		liveTail = append(liveTail, med(live))
	}
	for _, cl := range []string{"wide", "narrow", "apps"} {
		c := pc[cl]
		m["cluster.fanout_self_ms."+cl] = median(sortedCopy(c.fanout))
		m["cluster.response_bytes."+cl] = median(sortedCopy(c.bytes))
		m["ingest.query_self_ms."+cl] = median(sortedCopy(c.querySelf))
		m["tsq.engine_self_ms."+cl] = median(sortedCopy(c.engineSelf))
		m["trace.scan_ms."+cl] = median(sortedCopy(c.scan))
		m["analysis.window_feed_ms."+cl] = median(sortedCopy(c.feed))
		if c.n > 0 {
			m["trace.blocks_scanned."+cl] = c.blocksScanned / c.n
			m["trace.blocks_skipped."+cl] = c.blocksSkipped / c.n
			m["trace.rows_scanned."+cl] = c.rowsScanned / c.n
			m["trace.rows_matched."+cl] = c.rowsMatched / c.n
		}
		if c.rowsScanned > 0 {
			m["trace.pushdown_yield."+cl] = c.rowsMatched / c.rowsScanned
		}
	}
	m["trace.live_tail_scan_ms"] = median(sortedCopy(liveTail))

	var pulls, snaps []float64
	for rep := 0; rep < decompReps; rep++ {
		req++
		t := time.Now()
		f.agg.PullOnce()
		pulls = append(pulls, ms(tr.end("cluster.pull", req, t), tr))
		var total float64
		for _, n := range f.nodes {
			size, err := getSize("http://" + n.srv.AdminAddr().String() + "/snapshot")
			if err != nil {
				return nil, err
			}
			total += float64(size)
		}
		snaps = append(snaps, total)
	}
	m["cluster.pull_ms"] = median(sortedCopy(pulls))
	m["cluster.snapshot_bytes"] = median(sortedCopy(snaps))
	return m, nil
}

// ms returns the duration of span id in milliseconds.
func ms(id int64, tr *tracer) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans[id-1].ms()
}

// scanDir times a bare ScanFile (no-op callback) over every segment file
// of dir, split into sealed files and footerless live tails, and then the
// windowed feed over the same batches, timing only FeedBatch. Times are
// in milliseconds.
func scanDir(dir string, q tsq.Query, req int64, tr *tracer) (sealed, live, feed float64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	opt := trace.ScanOptions{Range: q.Range(), Apps: q.Apps}
	opts := serverOpts()
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".metr3" {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		isSealed, err := hasFooter(path)
		if err != nil {
			return 0, 0, 0, err
		}
		t := time.Now()
		device, err := trace.ScanFile(path, opt, nil, func(*trace.RecordBatch) error { return nil })
		if err != nil {
			return 0, 0, 0, err
		}
		if isSealed {
			sealed += ms(tr.end("trace.scan", req, t), tr)
		} else {
			live += ms(tr.end("trace.live_tail_scan", req, t), tr)
		}
		acc := analysis.NewWindowedAccumulator(device, q.Window, opts)
		var fd time.Duration
		if _, err := trace.ScanFile(path, opt, nil, func(b *trace.RecordBatch) error {
			t := time.Now()
			acc.FeedBatch(b)
			fd += time.Since(t)
			return nil
		}); err != nil {
			return 0, 0, 0, err
		}
		feed += ms(tr.add("analysis.window_feed", req, fd), tr)
	}
	return sealed, live, feed, nil
}

// hasFooter reports whether a segment file is sealed (carries the seek
// index) rather than a live tail.
func hasFooter(path string) (bool, error) {
	fh, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return false, err
	}
	_, _, _, ok, err := trace.ReadBlockIndex(fh, st.Size())
	return ok, err
}

// getSize fetches url and returns its body size.
func getSize(url string) (int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.Copy(io.Discard, resp.Body)
}
