package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest"
	"netenergy/internal/obs"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

func startIngest(t testing.TB, cfg ingest.Config) *ingest.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.AdminAddr == "" {
		cfg.AdminAddr = "127.0.0.1:0"
	}
	s := ingest.NewServer(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Stop the server before the test's TempDirs are removed, so its
	// checkpoint loop cannot write into them afterwards. Kill is a no-op
	// on a server the test already shut down or killed.
	t.Cleanup(s.Kill)
	return s
}

func streamAll(t testing.TB, addr string, dt *trace.DeviceTrace) {
	t.Helper()
	c, err := ingest.Dial(addr, dt.Device, dt.Start, 10*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", dt.Device, err)
	}
	for i := range dt.Records {
		if err := c.Send(&dt.Records[i]); err != nil {
			t.Fatalf("send %s: %v", dt.Device, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close %s: %v", dt.Device, err)
	}
}

// TestAggregatorMerge: the fleet headline over two nodes, each ingesting a
// disjoint half of a generated fleet, must equal the batch pipeline over
// the whole fleet — the merge may not lose, duplicate or distort anything.
// A third, unreachable member must be dropped from the cycle and counted,
// never blended in.
func TestAggregatorMerge(t *testing.T) {
	s1 := startIngest(t, ingest.Config{NodeID: "n1", Shards: 2, QueueDepth: 16, BatchSize: 8})
	s2 := startIngest(t, ingest.Config{NodeID: "n2", Shards: 2, QueueDepth: 16, BatchSize: 8})
	defer s1.Kill()
	defer s2.Kill()

	dts := synthgen.GenerateInMemory(synthgen.Small(4, 1))
	var sent int64
	var devs1, devs2 int
	var recs1 int64
	for i, dt := range dts {
		sent += int64(len(dt.Records))
		if i%2 == 0 {
			streamAll(t, s1.Addr().String(), dt)
			devs1++
			recs1 += int64(len(dt.Records))
		} else {
			streamAll(t, s2.Addr().String(), dt)
			devs2++
		}
	}

	members := []Member{
		{ID: "n1", Stream: s1.Addr().String(), Admin: s1.AdminAddr().String()},
		{ID: "n2", Stream: s2.Addr().String(), Admin: s2.AdminAddr().String()},
		{ID: "n3", Stream: "127.0.0.1:1", Admin: "127.0.0.1:1"}, // nothing listens here
	}
	// The prober is never started: all members stay presumed-alive, so the
	// aggregator must discover n3's unreachability at pull time.
	p := NewProber(ProberConfig{Members: members, Interval: time.Hour})
	agg := NewAggregator(AggregatorConfig{Prober: p, Timeout: 2 * time.Second})

	if _, ok := agg.Headline(); ok {
		t.Fatal("headline available before any cycle")
	}
	h := agg.PullOnce()

	if h.Records != sent || h.Devices != len(dts) {
		t.Fatalf("fleet merge %d devices / %d records, want %d / %d", h.Devices, h.Records, len(dts), sent)
	}
	if h.NodeID != "fleet" || h.NodesLive != 3 || h.Epoch != 1 {
		t.Errorf("fleet stamp: node_id=%q nodes_live=%d epoch=%d", h.NodeID, h.NodesLive, h.Epoch)
	}
	if len(h.Nodes) != 2 {
		t.Fatalf("contributions from %d nodes, want 2 (n3 unreachable)", len(h.Nodes))
	}
	for _, c := range h.Nodes {
		switch c.NodeID {
		case "n1":
			if c.Devices != devs1 || c.Records != recs1 {
				t.Errorf("n1 contribution %+v, want %d devices / %d records", c, devs1, recs1)
			}
		case "n2":
			if c.Devices != devs2 || c.Records != sent-recs1 {
				t.Errorf("n2 contribution %+v, want %d devices / %d records", c, devs2, sent-recs1)
			}
		default:
			t.Errorf("contribution from unexpected node %q", c.NodeID)
		}
	}

	// Batch reference over the identical dataset.
	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)
	if d := math.Abs(h.TotalEnergyJ - want.TotalEnergyJ); d > 1e-6*(1+want.TotalEnergyJ) {
		t.Errorf("total energy: fleet %v vs batch %v", h.TotalEnergyJ, want.TotalEnergyJ)
	}
	if d := math.Abs(h.BackgroundFraction - want.BackgroundFraction); d > 0.01*want.BackgroundFraction {
		t.Errorf("background fraction: fleet %v vs batch %v", h.BackgroundFraction, want.BackgroundFraction)
	}
	if d := math.Abs(h.FirstMinuteFraction - want.FirstMinute.Fraction); d > 1e-9 {
		t.Errorf("first minute: fleet %v vs batch %v", h.FirstMinuteFraction, want.FirstMinute.Fraction)
	}

	// The failed pull is visible in the exposition, and the HTTP surface
	// serves the merged document.
	m := scrapeAgg(t, agg)
	if m["aggregator_pull_errors_total"] != 1 {
		t.Errorf("aggregator_pull_errors_total = %v, want 1", m["aggregator_pull_errors_total"])
	}
	if m["aggregator_pulls_total"] != 2 {
		t.Errorf("aggregator_pulls_total = %v, want 2", m["aggregator_pulls_total"])
	}
	if int64(m["aggregator_records"]) != sent {
		t.Errorf("aggregator_records = %v, want %d", m["aggregator_records"], sent)
	}

	ts := httptest.NewServer(agg.Mux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/headline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc FleetHeadline
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Records != sent || doc.NodeID != "fleet" {
		t.Errorf("/headline = %d records node_id=%q", doc.Records, doc.NodeID)
	}
	var nodesDoc struct {
		Epoch uint64       `json:"epoch"`
		Nodes []NodeStatus `json:"nodes"`
	}
	resp2, err := http.Get(ts.URL + "/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&nodesDoc); err != nil {
		t.Fatal(err)
	}
	if nodesDoc.Epoch != 1 || len(nodesDoc.Nodes) != 3 {
		t.Errorf("/nodes epoch=%d members=%d", nodesDoc.Epoch, len(nodesDoc.Nodes))
	}
}

func scrapeAgg(t *testing.T, agg *Aggregator) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := agg.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
