// Command perfbench is the repository's end-to-end benchmark. It builds
// the system through its public constructors (ingest.NewServer,
// cluster.NewAggregator, core.OpenParallel), drives it over loopback TCP
// and HTTP from this process, checks every answer against a reference
// computed by an independent code path, and prints the result as one JSON
// line. See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; the
// median is setup_s and only the last set-up is measured.
const setupReps = 3

// env is what a workload's set-up and measurement share.
type env struct {
	workload string
	seed     uint64
	seconds  int
	dir      string // private scratch directory of this set-up
	nproc    int    // client connections and workers never exceed this
}

// fixture is a workload that has been set up: inputs generated, the
// reference computed and the system under test running.
type fixture interface {
	// measure drives the closed loop until the deadline, then checks every
	// output against the reference. tr is nil in the untraced run.
	measure(until time.Time, tr *tracer) (*phase, error)
	// layers derives the per-layer metrics from the traced phase, using
	// the untraced phase base for ratios against the end-to-end result.
	layers(base, traced *phase, tr *tracer) (map[string]float64, error)
	// digest identifies the generated inputs.
	digest() string
	close() error
}

// workload names one traffic mix and how to set it up.
type workload struct {
	name  string
	why   string
	setup func(e *env) (fixture, error)
}

var workloads = []workload{
	{"ingest-bulk", "long multi-day device streams (65536 records each) over 2 connections: the per-record ingest path with segments and checkpoints on", setupBulk},
	{"fleet-query", "a dashboard cycling four query classes through the aggregator while a live device trickles in: the read path", setupFleet},
	{"batch-report", "core.OpenParallel plus WriteReport over a METR-3 fleet directory: the paper reproduction", setupBatch},
}

// phase is what one measured loop produced.
type phase struct {
	attempted, failed int64
	lat               []float64 // per-operation latency, ms, in the order operations ended
	records           int64     // records delivered by successful operations
	start             time.Time // when the loop began
	clients           int       // closed-loop clients running at once
	blockOps          int       // rate windows of this many operations (0: seconds)
	ops               []opSample
	storedBytes       int64 // on disk after drain (0: not applicable)
	storedRecords     int64
	cpu               time.Duration // process CPU time over the loop
	allocBytes        uint64
	mallocs           uint64
	gcPause           time.Duration
	classes           map[string][]float64 // per-class latency, ms
	rssPeaks          []float64            // peak resident set of each second, MiB
	notes             map[string]any       // run-record extras
}

// opSample is one successful operation of a closed-loop client.
type opSample struct {
	end     time.Time
	lat     time.Duration
	records int64
}

// done records a successful operation that ended now.
func (p *phase) done(lat time.Duration, records int64) {
	p.ops = append(p.ops, opSample{time.Now(), lat, records})
	p.records += records
}

// recordsPerSec is the delivery rate: clients times records over the
// time the operations took, computed for each window of the loop and
// reported as the median over the windows, so a few seconds of
// interference from outside the benchmark move it less than they would a
// whole-run mean. Loops with fewer than two windows use the whole loop.
func (p *phase) recordsPerSec() float64 {
	if rates := p.windowRates(); len(rates) >= 2 {
		return median(sortedCopy(rates))
	}
	var records int64
	var busy time.Duration
	for _, op := range p.ops {
		records += op.records
		busy += op.lat
	}
	if busy <= 0 {
		return 0
	}
	return float64(p.clients) * float64(records) / busy.Seconds()
}

// windowRates returns the delivery rate of each window: each whole second
// of the loop by when operations ended or, with blockOps set, each run of
// blockOps consecutive operations. The last window is partial and left
// out.
func (p *phase) windowRates() []float64 {
	type window struct {
		records int64
		busy    time.Duration
	}
	var ws []window
	for i, op := range p.ops {
		k := int(op.end.Sub(p.start) / time.Second)
		if p.blockOps > 0 {
			k = i / p.blockOps
		}
		for len(ws) <= k {
			ws = append(ws, window{})
		}
		ws[k].records += op.records
		ws[k].busy += op.lat
	}
	if len(ws) > 0 {
		ws = ws[:len(ws)-1]
	}
	var rates []float64
	for _, w := range ws {
		if w.busy > 0 {
			rates = append(rates, float64(p.clients)*float64(w.records)/w.busy.Seconds())
		}
	}
	return rates
}

// loopStats snapshots the process counters a phase reports as deltas.
type loopStats struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readLoopStats() loopStats {
	var s loopStats
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// finish adds the deltas since s to p.
func (s loopStats) finish(p *phase) {
	e := readLoopStats()
	p.cpu += e.cpu - s.cpu
	p.allocBytes += e.mem.TotalAlloc - s.mem.TotalAlloc
	p.mallocs += e.mem.Mallocs - s.mem.Mallocs
	p.gcPause += time.Duration(e.mem.PauseTotalNs - s.mem.PauseTotalNs)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, workdir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	base := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)
	e := &env{workload: name, seed: seed, seconds: seconds, nproc: runtime.NumCPU()}

	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Machine: machineIdentity()}
	var res result
	var err error
	if traced {
		res, err = runTraced(w, e, base, &rec)
	} else {
		res, err = runUntraced(w, e, base, &rec)
	}
	if err != nil {
		return err
	}
	rec.Attempted, rec.Failed = res.Attempted, res.Failed
	rec.FailRatio = float64(res.Failed) / float64(max(res.Attempted, 1))
	rec.Metrics = res.Metrics
	if err := rec.write(filepath.Join(workdir, "records")); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupOnce runs one set-up in its own directory under base.
func setupOnce(w *workload, e *env, base string, i int) (fixture, time.Duration, error) {
	e.dir = filepath.Join(base, fmt.Sprintf("setup%d", i))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, 0, err
	}
	runtime.GC() // the previous set-up's garbage is not this one's cost
	t0 := time.Now()
	fx, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return fx, time.Since(t0), nil
}

// teardown closes a fixture and removes its directory.
func teardown(fx fixture, dir string) error {
	err := fx.close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// measurePhase runs one measured loop while recording the process's peak
// resident set of every second until the deadline (so not the checking
// that follows the loop).
func measurePhase(fx fixture, e *env, tr *tracer) (*phase, error) {
	runtime.GC()
	until := time.Now().Add(time.Duration(e.seconds) * time.Second)
	peaks := make(chan []float64, 1)
	go func() { peaks <- secondPeaks(until) }()
	p, err := fx.measure(until, tr)
	ps := <-peaks
	if p != nil {
		p.rssPeaks = ps
	}
	return p, err
}

// secondPeaks returns the peak resident set (VmHWM, MiB) of each whole
// second until the deadline, resetting the high-water mark through
// /proc/self/clear_refs after every reading. It returns nil when the
// kernel refuses the reset, and the caller falls back to the process
// peak.
func secondPeaks(until time.Time) []float64 {
	reset := func() bool { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil }
	if !reset() {
		return nil
	}
	var out []float64
	for next := time.Now().Add(time.Second); !next.After(until); next = next.Add(time.Second) {
		time.Sleep(time.Until(next))
		if v := peakRSSMB(); v > 0 {
			out = append(out, v)
		}
		if !reset() {
			return nil
		}
	}
	return out
}

func runUntraced(w *workload, e *env, base string, rec *runRecord) (result, error) {
	var setups []float64
	var fx fixture
	for i := 0; i < setupReps; i++ {
		f, d, err := setupOnce(w, e, base, i)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := teardown(f, e.dir); err != nil {
				return result{}, err
			}
			continue
		}
		fx = f
	}
	rec.InputDigest = fx.digest()
	p, err := measurePhase(fx, e, nil)
	if cerr := teardown(fx, e.dir); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	lat := sortedCopy(p.lat)
	tailV, tailP, beyond, windows := windowedTail(p.lat)
	rec.Samples = map[string]summary{
		"setup_s": summarize(setups),
		"op_ms":   summarize(p.lat),
	}
	for c, xs := range p.classes {
		rec.Samples["class."+c+"_ms"] = summarize(xs)
	}
	rec.Tail = &tailRecord{Percentile: tailP, Beyond: beyond, N: len(lat), Windows: windows}
	if windows > 0 {
		rec.Tail.WindowOps = tailWindow
	}
	if rates := p.windowRates(); len(rates) > 0 {
		rec.Samples["records_per_s_by_window"] = summarize(rates)
	}
	if len(p.rssPeaks) > 0 {
		rec.Samples["rss_second_peak_mb"] = summarize(p.rssPeaks)
		p.notes["rss_loop_peak_mb"] = sortedCopy(p.rssPeaks)[len(p.rssPeaks)-1]
	}
	stored := 0.0
	if p.storedRecords > 0 {
		stored = float64(p.storedBytes) / float64(p.storedRecords)
	}
	rec.Notes = p.notes
	m := map[string]metricValue{
		"setup_s":                 {median(sortedCopy(setups)), "s"},
		"peak_rss_mb":             {peakMB(p), "MB"},
		"op_p50_ms":               {orZero(median(lat)), "ms"}, // 0: no operation succeeded
		"op_tail_ms":              {orZero(tailV), "ms"},
		"records_per_s":           {p.recordsPerSec(), "1/s"},
		"stored_bytes_per_record": {stored, "bytes"},
	}
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

func runTraced(w *workload, e *env, base string, rec *runRecord) (result, error) {
	// Untraced reference phase on its own set-up, so the traced phase
	// starts from the same state and the difference is the tracing.
	fx, _, err := setupOnce(w, e, base, 0)
	if err != nil {
		return result{}, err
	}
	rec.InputDigest = fx.digest()
	p0, err := measurePhase(fx, e, nil)
	if cerr := teardown(fx, e.dir); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}

	fx, _, err = setupOnce(w, e, base, 1)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	p1, err := measurePhase(fx, e, tr)
	var lm map[string]float64
	if err == nil {
		lm, err = fx.layers(p0, p1, tr)
	}
	if cerr := teardown(fx, e.dir); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	if err := tr.writeJSONL(filepath.Join(filepath.Dir(base), fmt.Sprintf("spans-%s-%d.jsonl", e.workload, e.seed))); err != nil {
		return result{}, err
	}

	ops := float64(max(p0.attempted, 1))
	lm["runtime.alloc_bytes_per_op"] = float64(p0.allocBytes) / ops
	lm["runtime.mallocs_per_op"] = float64(p0.mallocs) / ops
	lm["runtime.gc_pause_ms"] = float64(p0.gcPause) / 1e6
	if r1 := p1.recordsPerSec(); r1 > 0 {
		lm["trace_overhead_pct"] = (p0.recordsPerSec()/r1 - 1) * 100
	}
	rec.Notes = p1.notes
	m := map[string]metricValue{}
	for _, pl := range perLayer {
		// Absent (the workload does not exercise the layer) and NaN (a
		// median of no samples) both read as 0: the layer did no work.
		m[pl.name] = metricValue{orZero(lm[pl.name]), pl.unit}
	}
	var extra []string
	for k := range lm {
		if _, ok := m[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("layer metrics missing from the catalogue: %s", strings.Join(extra, ", "))
	}
	failed := p0.failed + p1.failed
	return result{Correct: failed == 0, Attempted: p0.attempted + p1.attempted, Failed: failed, Metrics: m}, nil
}

// orZero maps NaN, the median of no samples, to 0 so the result stays
// encodable.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// peakMB is peak_rss_mb: the median over the loop's seconds of each
// second's peak resident set. The single highest reading rests on when the
// garbage collector happened to run against the largest transient
// allocation, and moved by a fifth between otherwise identical runs; the
// median second is the peak the workload holds. Without per-second
// readings it is the process peak.
func peakMB(p *phase) float64 {
	if len(p.rssPeaks) >= 3 {
		return median(sortedCopy(p.rssPeaks))
	}
	return peakRSSMB()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
