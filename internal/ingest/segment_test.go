package ingest

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// segRelTol matches the acceptance criterion: /query energy equals the
// equivalent batch run to one part in 1e6.
const segRelTol = 1e-6

func segClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= segRelTol*scale+1e-12
}

// TestQueryEndpointMatchesHeadline streams a fixed-seed fleet, lets every
// session FIN (sealing the segments), and checks GET /query over the whole
// span against the live headline: total_energy_j is the same attributed
// total computed two independent ways — once by the shard accumulators,
// once by the query engine re-reading the segment files.
func TestQueryEndpointMatchesHeadline(t *testing.T) {
	dir := t.TempDir()
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 2))

	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 4, QueueDepth: 16, BatchSize: 32,
		SegmentDir: dir,
	})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	var wg sync.WaitGroup
	for _, dt := range dts {
		wg.Add(1)
		go func(dt *trace.DeviceTrace) {
			defer wg.Done()
			streamTrace(t, addrOf(s), dt)
		}(dt)
	}
	wg.Wait()

	base := "http://" + s.AdminAddr().String()
	var head LiveHeadline
	if code := adminGet(t, base+"/headline", &head); code != http.StatusOK {
		t.Fatalf("/headline: %d", code)
	}

	// Query [0, span_end + 1 day), not [SpanStartUS, SpanEndUS+1): the
	// headline span tracks network activity, but devices emit
	// app-name/proc-state records outside it (preamble before the first
	// transfer, trailing state changes after the last), and every record
	// must still be counted.
	var res tsq.Result
	url := fmt.Sprintf("%s/query?from=0&to=%d", base, head.SpanEndUS+86_400_000_000)
	if code := adminGet(t, url, &res); code != http.StatusOK {
		t.Fatalf("/query: %d", code)
	}
	if !segClose(res.TotalEnergyJ, head.TotalEnergyJ) {
		t.Fatalf("query total %g, headline total %g", res.TotalEnergyJ, head.TotalEnergyJ)
	}
	if res.Records != head.Records {
		t.Fatalf("query saw %d records, headline %d", res.Records, head.Records)
	}
	if res.Devices != head.Devices {
		t.Fatalf("query saw %d devices, headline %d", res.Devices, head.Devices)
	}
	// Sessions FIN'd, so segments are sealed: the scan must have used the
	// seek index (blocks counted), and a narrow window must skip blocks.
	if res.Scan.BlocksTotal == 0 {
		t.Fatalf("whole-span query examined no indexed blocks: %+v", res.Scan)
	}
	mid := (head.SpanStartUS + head.SpanEndUS) / 2
	var narrow tsq.Result
	url = fmt.Sprintf("%s/query?from=%d&to=%d", base, mid, mid+3600_000_000)
	if code := adminGet(t, url, &narrow); code != http.StatusOK {
		t.Fatalf("narrow /query: %d", code)
	}
	if narrow.Scan.BlocksSkipped == 0 {
		t.Fatalf("narrow query skipped no blocks: %+v", narrow.Scan)
	}
	// The pushdown counter metric is exported.
	if got := metricValue(t, base, "ingest_query_blocks_skipped_total"); got == 0 {
		t.Fatal("ingest_query_blocks_skipped_total not incremented")
	}
}

// TestQueryLiveTail: records from sessions still open (no FIN) are visible
// to /query via the synced, unsealed segment tail.
func TestQueryLiveTail(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 2, QueueDepth: 16, BatchSize: 4,
		SegmentDir: dir,
	})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	c, err := Dial(s.Addr().String(), "live-dev", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	recs := []trace.Record{
		{Type: trace.RecAppName, TS: 10, App: 1, AppName: "com.live"},
		{Type: trace.RecProcState, TS: 20, App: 1, State: trace.StateForeground},
		{Type: trace.RecScreen, TS: 30, ScreenOn: true},
		{Type: trace.RecScreen, TS: 40, ScreenOn: false},
		{Type: trace.RecProcState, TS: 50, App: 1, State: trace.StateBackground},
	}
	for i := range recs {
		if err := c.Send(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// The records travel through the shard queue asynchronously; poll the
	// accepted-record counter rather than sleeping blind.
	deadline := time.Now().Add(5 * time.Second)
	for s.counters.records.Load() < int64(len(recs)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d records applied", s.counters.records.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	base := "http://" + s.AdminAddr().String()
	var res tsq.Result
	if code := adminGet(t, base+"/query?from=0&to=1000", &res); code != http.StatusOK {
		t.Fatalf("/query: %d", code)
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("live tail query saw %d records, want %d", res.Records, len(recs))
	}
	// No network records were sent, so no energy was attributed and the
	// app table is rightly empty — but the device itself must be visible.
	if res.Devices != 1 {
		t.Fatalf("live tail query saw %d devices, want 1", res.Devices)
	}
	if len(res.Apps) != 0 {
		t.Fatalf("no-traffic live tail grew app rows: %+v", res.Apps)
	}
}

// TestSegmentClockRegressionAfterSync: a query's sync cuts the open
// segment's buffered block, and a device clock that then steps back must
// still only drop the regressed record from the segment — counted in
// ingest_segment_records_dropped_total — not disable the device's
// persistence (ingest_segment_errors_total): later in-order records keep
// landing in the file and read back.
func TestSegmentClockRegressionAfterSync(t *testing.T) {
	dir := t.TempDir()
	c := newCounters()
	st := newSegmentStore(dir, 0, nil, c)
	appendTS := func(tss ...trace.Timestamp) {
		var b trace.RecordBatch
		for _, ts := range tss {
			b.Append(&trace.Record{Type: trace.RecScreen, TS: ts, ScreenOn: true})
		}
		st.appendBatch("skew-dev", &b)
	}
	appendTS(100, 200)
	if err := st.sync(); err != nil {
		t.Fatal(err)
	}
	appendTS(160, 300)
	st.closeAll()
	if got := c.segRecordsDropped.Load(); got != 1 {
		t.Fatalf("segment records dropped = %d, want 1", got)
	}
	if got := c.segErrors.Load(); got != 0 {
		t.Fatalf("segment errors = %d, want 0", got)
	}
	dt, err := trace.ReadFile(filepath.Join(dir, segmentFiles(t, dir)[0]))
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Timestamp
	for _, r := range dt.Records {
		got = append(got, r.TS)
	}
	if fmt.Sprint(got) != "[100 200 300]" {
		t.Fatalf("segment holds timestamps %v, want [100 200 300]", got)
	}
}

// TestQueryEndpointErrors: disabled store, bad parameters.
func TestQueryEndpointErrors(t *testing.T) {
	s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	base := "http://" + s.AdminAddr().String()
	if code := adminGet(t, base+"/query?from=0&to=10", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("query without segment dir: %d, want 503", code)
	}

	dir := t.TempDir()
	s2 := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1, SegmentDir: dir})
	defer s2.Shutdown(context.Background()) //nolint:errcheck
	base2 := "http://" + s2.AdminAddr().String()
	for _, raw := range []string{"from=20&to=10", "frm=0", "window=1us&from=0&to=10"} {
		if code := adminGet(t, base2+"/query?"+raw, nil); code != http.StatusBadRequest {
			t.Fatalf("query %q: %d, want 400", raw, code)
		}
	}
	// A well-formed query over an empty store succeeds with zero rows.
	var res tsq.Result
	if code := adminGet(t, base2+"/query?from=0&to=10", &res); code != http.StatusOK {
		t.Fatalf("empty-store query: %d", code)
	}
	if res.Records != 0 || len(res.Apps) != 0 {
		t.Fatalf("empty-store query returned rows: %+v", res)
	}
}

// TestSegmentRollAndReseed: a tiny SegmentMaxBytes forces mid-stream
// rolls; a restarted server continues file numbering instead of
// clobbering sealed history.
func TestSegmentRollAndReseed(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)

	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 1, BatchSize: 64,
		SegmentDir: dir, SegmentMaxBytes: 32 << 10,
	})
	streamTrace(t, s.Addr().String(), dt)
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	first := segmentFiles(t, dir)
	if len(first) < 2 {
		t.Fatalf("expected multiple rolled segments, got %v", first)
	}
	// All sealed (drain seals): each file must carry a footer index.
	for _, name := range first {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := f.Stat()
		_, _, _, ok, err := trace.ReadBlockIndex(f, st.Size())
		f.Close()
		if err != nil || !ok {
			t.Fatalf("%s not sealed (ok=%v err=%v)", name, ok, err)
		}
	}

	// Restart into the same dir and stream a second device: numbering must
	// extend, not overwrite.
	s2 := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 1, BatchSize: 64,
		SegmentDir: dir, SegmentMaxBytes: 32 << 10,
	})
	dt2 := synthgen.GenerateDevice(synthgen.Small(2, 2), 1)
	streamTrace(t, s2.Addr().String(), dt2)
	if _, err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := segmentFiles(t, dir)
	if len(second) <= len(first) {
		t.Fatalf("restart produced no new segments: %v -> %v", first, second)
	}
	for _, name := range first {
		found := false
		for _, n := range second {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("restart lost sealed segment %s", name)
		}
	}
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), segmentExt) {
			names = append(names, ent.Name())
		}
	}
	return names
}

func addrOf(s *Server) string { return s.Addr().String() }

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v) //nolint:errcheck
			return v
		}
	}
	return 0
}

// TestSanitizeSegmentName: injective, filesystem-safe, no dotfiles.
func TestSanitizeSegmentName(t *testing.T) {
	cases := map[string]string{
		"u01":        "u01",
		"dev.a":      "dev.a",
		".hidden":    "%2Ehidden",
		"a/b":        "a%2Fb",
		"a b":        "a%20b",
		"per%cent":   "per%25cent",
		"UPPER_low-": "UPPER_low-",
	}
	for in, want := range cases {
		if got := sanitizeSegmentName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("x", 4096)
	s := sanitizeSegmentName(long)
	if len(s) > 128 || s == sanitizeSegmentName(long+"y") {
		t.Fatalf("long-name fallback broken: %q", s)
	}
}
