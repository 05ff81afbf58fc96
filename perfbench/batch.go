package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/core"
	"netenergy/internal/energy"
	"netenergy/internal/obs"
	"netenergy/internal/trace"
)

// The batch fleet is small enough that a report takes about a twentieth
// of a second, so one run holds several hundred reports and op_tail_ms
// several windows: with two windows its median is their mean, which one
// burst of interference moves. Every device holds the same number of
// records (about two days).
const (
	batchDevices = 4
	batchDays    = 5
	batchRecords = 12_000
)

// coreStages are the Study methods WriteReport calls, in report order.
var coreStages = []struct {
	name string
	call func(*core.Study)
}{
	{"headline", func(s *core.Study) { s.Headline() }},
	{"fig1", func(s *core.Study) { s.Fig1() }},
	{"fig2", func(s *core.Study) { s.Fig2() }},
	{"fig3", func(s *core.Study) { s.Fig3() }},
	{"fig4", func(s *core.Study) { s.Fig4() }},
	{"fig5", func(s *core.Study) { s.Fig5() }},
	{"leak_hosts", func(s *core.Study) { s.LeakHosts() }},
	{"fig6", func(s *core.Study) { s.Fig6() }},
	{"table1", func(s *core.Study) { s.Table1() }},
	{"table2", func(s *core.Study) { s.Table2(3) }},
	{"screen_off", func(s *core.Study) { s.ScreenOff() }},
	{"retrans", func(s *core.Study) { s.Retrans() }},
	{"weekly", func(s *core.Study) { s.WeeklyTrend() }},
	{"dns", func(s *core.Study) { s.DNSOverhead() }},
}

// batchRef is the batch-report reference: the fleet streamed file by file
// through analysis.StreamFleet, the independent path the golden harness
// cross-checks the batch Study against.
type batchRef struct {
	total, background float64
}

type batchFixture struct {
	e       *env
	dir     string
	records int64
	bytes   int64
	ref     batchRef
	dig     string
}

func setupBatch(e *env) (fixture, error) {
	dts, err := fixedDevices(e.seed, batchDevices, batchDays, batchRecords, e.nproc)
	if err != nil {
		return nil, err
	}
	f := &batchFixture{e: e, dir: filepath.Join(e.dir, "fleet")}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, dt := range dts {
		var b bytes.Buffer
		if err := dt.SerializeFormat(&b, trace.FormatColumnar); err != nil {
			return nil, err
		}
		name := dt.Device + ".metr"
		if err := os.WriteFile(filepath.Join(f.dir, name), b.Bytes(), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, b.Len())
		h.Write(b.Bytes())
		f.bytes += int64(b.Len())
		f.records += int64(len(dt.Records))
	}
	f.dig = fmt.Sprintf("%x", h.Sum(nil))
	fleet, err := trace.OpenFleet(f.dir)
	if err != nil {
		return nil, err
	}
	res, err := analysis.StreamFleet(fleet, energy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	f.ref = batchRef{res.Ledger.Total, res.Ledger.BackgroundFraction()}
	return f, nil
}

func (f *batchFixture) digest() string { return f.dig }
func (f *batchFixture) close() error   { return nil }

// checkStudy holds a Study's headline to the streamed reference at the
// golden harness's tolerance.
func checkStudy(ref batchRef, total, background float64) string {
	if !relClose(total, ref.total, 1e-9, 1e-12) {
		return fmt.Sprintf("total energy %.12g J, streamed %.12g", total, ref.total)
	}
	if !relClose(background, ref.background, 1e-9, 1e-12) {
		return fmt.Sprintf("background fraction %.12g, streamed %.12g", background, ref.background)
	}
	return ""
}

func (f *batchFixture) measure(until time.Time, tr *tracer) (*phase, error) {
	p := &phase{notes: map[string]any{}, start: time.Now(), clients: 1}
	var first [sha256.Size]byte
	var buf bytes.Buffer
	ls := readLoopStats()
	for i := int64(1); time.Now().Before(until); i++ {
		buf.Reset()
		t0 := time.Now()
		st, err := core.OpenParallel(f.dir, f.e.nproc)
		tr.end("core.open", i, t0)
		if err == nil {
			t := tr.begin()
			err = st.WriteReport(&buf)
			tr.end("core.write_report", i, t)
		}
		d := time.Since(t0)
		p.attempted++
		p.lat = append(p.lat, float64(d)/1e6)
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			h := st.Headline()
			msg = checkStudy(f.ref, h.TotalEnergyJ, h.BackgroundFraction)
			sum := sha256.Sum256(buf.Bytes())
			if i == 1 {
				first = sum
			} else if msg == "" && sum != first {
				msg = "report bytes differ from the run's first report"
			}
		}
		if msg != "" {
			p.failed++
			fmt.Fprintln(os.Stderr, "perfbench: report mismatch:", msg)
			continue
		}
		p.done(d, f.records)
	}
	ls.finish(p)
	p.storedBytes, p.storedRecords = f.bytes, f.records
	p.notes["report_bytes"] = buf.Len()
	return p, nil
}

// layers times the pieces of one report separately: reading each file,
// loading the traces, every Study method the report calls, and the
// remainder of WriteReport, which is rendering.
func (f *batchFixture) layers(base, traced *phase, tr *tracer) (map[string]float64, error) {
	fleet, err := trace.OpenFleet(f.dir)
	if err != nil {
		return nil, err
	}
	stage := map[string][]float64{}
	var read, load, render, mbps []float64
	for rep := 0; rep < decompReps; rep++ {
		req := int64(-(rep + 1))
		var dts []*trace.DeviceTrace
		var readMS float64
		for _, path := range fleet.Paths {
			t := time.Now()
			dt, err := trace.ReadFileParallel(path, 1)
			if err != nil {
				return nil, err
			}
			readMS += ms(tr.end("trace.read_parallel", req, t), tr)
			dts = append(dts, dt)
		}
		read = append(read, readMS)
		mbps = append(mbps, float64(f.bytes)/1e6/(readMS/1e3))

		t := time.Now()
		if _, err := analysis.LoadAll(dts, energy.DefaultOptions()); err != nil {
			return nil, err
		}
		load = append(load, ms(tr.end("analysis.load", req, t), tr))

		st, err := core.OpenParallel(f.dir, f.e.nproc)
		if err != nil {
			return nil, err
		}
		for _, cs := range coreStages {
			t := time.Now()
			cs.call(st)
			stage[cs.name] = append(stage[cs.name], ms(tr.end("core."+cs.name, req, t), tr))
		}
		// Rendering is what WriteReport spends outside the Study methods it
		// calls. The stage times of that same call come from the
		// analyze_stage_seconds family the Study exports once instrumented,
		// so the remainder is not thrown off by calling the stages twice.
		reg := obs.New()
		st.Instrument(reg)
		t = time.Now()
		if err := st.WriteReport(io.Discard); err != nil {
			return nil, err
		}
		total := ms(tr.end("core.write_report", req, t), tr)
		scr, err := scrapeRegistry(reg)
		if err != nil {
			return nil, err
		}
		var inStages float64
		for k, v := range scr {
			if strings.HasPrefix(k, "analyze_stage_seconds_sum{") {
				inStages += v * 1e3
			}
		}
		render = append(render, total-inStages)
	}
	m := map[string]float64{
		"trace.read_parallel_ms": median(sortedCopy(read)),
		"trace.decode_mbps":      median(sortedCopy(mbps)),
		"analysis.load_ms":       median(sortedCopy(load)),
		"report.render_ms":       median(sortedCopy(render)),
	}
	for name, xs := range stage {
		m["core."+name+"_ms"] = median(sortedCopy(xs))
	}
	return m, nil
}
