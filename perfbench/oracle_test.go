package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{workload: t.Name(), seed: 7, seconds: 1, dir: t.TempDir(), nproc: 2}
}

// TestQueryOracleAgreesWithEngine: the restricted reference matches the tsq
// engine over the same records for every query shape the dashboard sends,
// and a planted difference in any checked field is reported.
func TestQueryOracleAgreesWithEngine(t *testing.T) {
	dts := synthgen.GenerateInMemory(genConfig(3, 2, 2))
	dir := t.TempDir()
	span := [2]trace.Timestamp{1<<63 - 1, -1 << 63}
	for _, dt := range dts {
		f, err := os.Create(filepath.Join(dir, dt.Device+".metr3"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewColumnWriter(f, dt.Device, dt.Start)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dt.Records {
			if err := w.Write(&dt.Records[i]); err != nil {
				t.Fatal(err)
			}
			span[0] = min(span[0], dt.Records[i].TS)
			span[1] = max(span[1], dt.Records[i].TS)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	energetic := 0
	for _, s := range distinct(querySequence(3, dts, span)) {
		if s.class == "headline" {
			continue
		}
		ref := s.ref
		res, err := tsq.Engine{Opts: serverOpts()}.QueryDir(dir, s.q)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkQuery(ref, s.q, res); msg != "" {
			t.Fatalf("%s query %+v: %s", s.class, s.q, msg)
		}
		plants := map[string]func(r *tsq.Result){
			"records": func(r *tsq.Result) { r.Records++ },
			"devices": func(r *tsq.Result) { r.Devices-- },
		}
		if res.TotalEnergyJ > 0 && len(res.Apps) > 0 {
			energetic++
			plants["total"] = func(r *tsq.Result) { r.TotalEnergyJ *= 1.001 }
			plants["app"] = func(r *tsq.Result) { r.Apps[0].EnergyJ *= 1.001 }
			plants["rows"] = func(r *tsq.Result) { r.Apps = r.Apps[1:] }
		}
		if s.q.Window > 0 {
			plants["window"] = func(r *tsq.Result) { r.Windows[len(r.Windows)/2].EnergyJ += 1 }
		}
		for name, plant := range plants {
			bad := *res
			bad.Apps = append([]tsq.AppRow(nil), res.Apps...)
			bad.Windows = append([]tsq.WindowRow(nil), res.Windows...)
			plant(&bad)
			if checkQuery(ref, s.q, &bad) == "" {
				t.Errorf("%s query: planted %s mismatch not reported", s.class, name)
			}
		}
	}
	if energetic == 0 {
		t.Fatal("no query matched any energy: the energy checks went untested")
	}
}

// TestFleetRunCountsPlantedMismatch: a wrong reference makes the dashboard
// answers that use it count as failed, and only those.
func TestFleetRunCountsPlantedMismatch(t *testing.T) {
	fx, err := setupFleet(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	f := fx.(*fleetFixture)
	defer f.close()
	var planted *querySpec
	for _, s := range f.seq {
		if s.class == "narrow" {
			planted = s
			break
		}
	}
	planted.ref.total *= 1.01
	p, err := f.measure(time.Now().Add(1500*time.Millisecond), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, a := range f.answers {
		if a.spec == planted {
			want++
		}
	}
	if want == 0 {
		t.Fatal("the run never sent the planted query")
	}
	if p.failed != want {
		t.Fatalf("failed %d of %d answers, want the %d planted ones", p.failed, p.attempted, want)
	}
}

// TestIngestRunCountsPlantedMismatch: a wrong per-stream reference fails
// the drained-result check.
func TestIngestRunCountsPlantedMismatch(t *testing.T) {
	for _, plant := range []bool{false, true} {
		fx, err := setupBulk(testEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		f := fx.(*ingestFixture)
		if plant {
			for _, r := range f.ref {
				r.Ledger.Total *= 1.01
			}
		}
		p, err := f.measure(time.Now().Add(300*time.Millisecond), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.close(); err != nil {
			t.Fatal(err)
		}
		if p.attempted == 0 {
			t.Fatal("no streams sent")
		}
		if plant && p.failed == 0 {
			t.Error("planted reference mismatch not counted")
		}
		if !plant && p.failed != 0 {
			t.Errorf("clean run failed %d of %d", p.failed, p.attempted)
		}
	}
}

// TestBatchRunCountsPlantedMismatch: every report checked against a wrong
// streamed reference fails.
func TestBatchRunCountsPlantedMismatch(t *testing.T) {
	fx, err := setupBatch(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	f := fx.(*batchFixture)
	f.ref.background += 1e-6
	p, err := f.measure(time.Now().Add(200*time.Millisecond), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != p.attempted {
		t.Fatalf("failed %d of %d reports, want all", p.failed, p.attempted)
	}
}

// TestInputDigestBySeed: a seed reproduces its inputs byte for byte and
// another seed changes them, for every workload's generator.
func TestInputDigestBySeed(t *testing.T) {
	fleetDigest := func(seed uint64) string {
		dts, _, live, err := fleetInputs(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return inputDigest(append(traceStreams(dts), live))
	}
	gens := map[string]func(uint64) string{
		"ingest-bulk": func(s uint64) string {
			pool, err := bulkStreams(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			return inputDigest(pool)
		},
		"fleet-query": fleetDigest,
		"batch-report": func(s uint64) string {
			e := testEnv(t)
			e.seed = s
			fx, err := setupBatch(e)
			if err != nil {
				t.Fatal(err)
			}
			return fx.digest()
		},
	}
	for name, gen := range gens {
		a, b, c := gen(11), gen(11), gen(12)
		if a != b {
			t.Errorf("%s: seed 11 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", name, a)
		}
	}
}

// TestLedgerSumsToEndToEnd: stage costs plus the residual reproduce the
// end-to-end figure exactly.
func TestLedgerSumsToEndToEnd(t *testing.T) {
	lg := stageLedger{records: 1000, sessions: 4,
		decode: 30 * time.Microsecond, feed: 150 * time.Microsecond,
		segWrite: 400 * time.Microsecond, retire: 80 * time.Microsecond}
	m := lg.metrics(900)
	sum := m["trace.wire_decode_ns_per_record"] + m["analysis.feed_ns_per_record"] +
		m["trace.segment_write_ns_per_record"] +
		m["analysis.retire_ns_per_session"]*float64(lg.sessions)/float64(lg.records) +
		m["ingest.stage_residual_ns_per_record"]
	if !relClose(sum, m["ingest.e2e_cpu_ns_per_record"], 1e-12, 1e-9) {
		t.Fatalf("stages and residual sum to %v, end to end %v", sum, m["ingest.e2e_cpu_ns_per_record"])
	}
	if m["ingest.stage_residual_ns_per_record"] != 900-660 {
		t.Fatalf("residual %v, want 240", m["ingest.stage_residual_ns_per_record"])
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json in step with the
// workloads and the per-layer metrics the traced run emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if c := perLayer[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, m, c)
		}
	}
}

// distinct drops repeated specs, keeping first occurrences in order.
func distinct(seq []*querySpec) []*querySpec {
	seen := map[*querySpec]bool{}
	var out []*querySpec
	for _, s := range seq {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
