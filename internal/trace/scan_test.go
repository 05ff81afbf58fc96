package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// scanRecords writes recs into a file of the given format and returns
// every record ScanFile delivers for opt, plus the stats.
func scanRecords(t *testing.T, format Format, recs []Record, opt ScanOptions) ([]Record, ScanStats) {
	t.Helper()
	path := writeScanFile(t, format, recs)
	var stats ScanStats
	var got []Record
	device, err := ScanFile(path, opt, &stats, func(b *RecordBatch) error {
		var rec Record
		for i := 0; i < b.Len(); i++ {
			b.Record(i, &rec)
			cp := rec
			cp.Payload = append([]byte(nil), rec.Payload...)
			got = append(got, cp)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanFile: %v", err)
	}
	if device != "scan-dev" {
		t.Fatalf("device = %q", device)
	}
	return got, stats
}

func writeScanFile(t *testing.T, format Format, recs []Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.metr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := Timestamp(0)
	if len(recs) > 0 {
		start = recs[0].TS
	}
	w, err := NewFormatWriter(f, format, "scan-dev", start)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanFixture builds n packet records with 1 KiB payloads at ts =
// 1000*i, big enough to span several blocks in both blocked formats.
func scanFixture(n int) []Record {
	payload := bytes.Repeat([]byte{0x42}, 1024)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: RecPacket, TS: Timestamp(1000 * i), App: uint32(i % 7),
			Dir: DirUp, Net: NetCellular, State: StateService, Payload: payload}
	}
	return recs
}

// TestWriterRejectsOutOfOrder is the satellite-1 regression: the block
// headers' firstTS/lastTS are positional, and pushdown treats them as
// min/max — so both blocked writers, and the columnar writer's batch
// append, must reject an out-of-order record rather than write a block
// whose advertised range lies.
func TestWriterRejectsOutOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		format Format
		batch  bool // append through ColumnWriter.WriteBatch
	}{
		{"metr2", FormatBlocked, false},
		{"metr3", FormatColumnar, false},
		{"metr3-batch", FormatColumnar, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewFormatWriter(&buf, tc.format, "d", 1000)
			if err != nil {
				t.Fatal(err)
			}
			write := w.Write
			if tc.batch {
				var b RecordBatch
				write = func(r *Record) error {
					b.Reset()
					b.Append(r)
					return w.(*ColumnWriter).WriteBatch(&b)
				}
			}
			if err := write(&Record{Type: RecScreen, TS: 1000, ScreenOn: true}); err != nil {
				t.Fatal(err)
			}
			// Equal timestamps are fine (ties are common in real traces).
			if err := write(&Record{Type: RecScreen, TS: 1000, ScreenOn: false}); err != nil {
				t.Fatalf("equal ts rejected: %v", err)
			}
			if err := write(&Record{Type: RecScreen, TS: 2000, ScreenOn: true}); err != nil {
				t.Fatal(err)
			}
			err = write(&Record{Type: RecScreen, TS: 1999, ScreenOn: false})
			if !errors.Is(err, ErrOutOfOrder) {
				t.Fatalf("out-of-order write: got %v, want ErrOutOfOrder", err)
			}
			// The writer is poisoned: later in-order writes keep failing.
			if err := write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true}); !errors.Is(err, ErrOutOfOrder) {
				t.Fatalf("write after rejection: got %v, want ErrOutOfOrder", err)
			}
		})
	}
}

// TestWriterOutOfOrderAcrossBlocks forces a block cut between the
// in-order run and the regression record: the monotonicity reference
// must survive block boundaries (where the delta base resets).
func TestWriterOutOfOrderAcrossBlocks(t *testing.T) {
	for _, format := range []Format{FormatBlocked, FormatColumnar} {
		t.Run(format.String(), func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewFormatWriter(&buf, format, "d", 0)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{1}, 4096)
			for i := 0; i < 100; i++ { // ~400 KiB: at least one cut block
				rec := Record{Type: RecPacket, TS: Timestamp(1000 * i), App: 1,
					Dir: DirDown, Net: NetWiFi, State: StateForeground, Payload: payload}
				if err := w.Write(&rec); err != nil {
					t.Fatal(err)
				}
			}
			err = w.Write(&Record{Type: RecScreen, TS: 500, ScreenOn: true})
			if !errors.Is(err, ErrOutOfOrder) {
				t.Fatalf("out-of-order write after block cut: got %v, want ErrOutOfOrder", err)
			}
		})
	}
}

// TestTimeRangeBoundaries is the satellite-2 boundary table for the two
// comparisons every pushdown decision reduces to: record membership in
// [from, to) and block overlap against a [first, last] record span.
func TestTimeRangeBoundaries(t *testing.T) {
	r := TimeRange{From: 100, To: 200}
	recordCases := []struct {
		ts   Timestamp
		want bool
	}{
		{99, false},
		{100, true}, // exactly at from: included
		{150, true},
		{199, true},
		{200, false}, // exactly at to: excluded
		{201, false},
	}
	for _, c := range recordCases {
		if got := r.Contains(c.ts); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.ts, got, c.want)
		}
	}
	blockCases := []struct {
		first, last Timestamp
		want        bool
	}{
		{0, 99, false},
		{0, 100, true}, // lastTS == from: the record at from is in range
		{0, 150, true},
		{150, 160, true},
		{199, 300, true}, // firstTS == to-1: the record at 199 is in range
		{200, 300, false},
		{201, 300, false},
		{100, 100, true},
		{199, 199, true},
		{200, 200, false},
	}
	for _, c := range blockCases {
		if got := r.overlapsBlock(c.first, c.last); got != c.want {
			t.Errorf("overlapsBlock(%d, %d) = %v, want %v", c.first, c.last, got, c.want)
		}
	}
}

// TestScanFileBoundaries runs the same boundary table end to end: a
// record exactly at to must never be delivered, a record exactly at
// from always, in every container format including the v1 fallback.
func TestScanFileBoundaries(t *testing.T) {
	recs := []Record{
		{Type: RecScreen, TS: 99, ScreenOn: true},
		{Type: RecScreen, TS: 100, ScreenOn: false},
		{Type: RecScreen, TS: 150, ScreenOn: true},
		{Type: RecScreen, TS: 199, ScreenOn: false},
		{Type: RecScreen, TS: 200, ScreenOn: true},
		{Type: RecScreen, TS: 201, ScreenOn: false},
	}
	for _, format := range []Format{FormatFlat, FormatDeflate, FormatBlocked, FormatColumnar} {
		t.Run(format.String(), func(t *testing.T) {
			got, _ := scanRecords(t, format, recs, ScanOptions{Range: TimeRange{From: 100, To: 200}})
			want := []Timestamp{100, 150, 199}
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i, w := range want {
				if got[i].TS != w {
					t.Fatalf("record %d: ts=%d, want %d", i, got[i].TS, w)
				}
			}
		})
	}
}

// TestScanPushdownSkipsBlocks proves the seek index prunes: a narrow
// window over a multi-block file must skip blocks (counter asserted)
// and still deliver exactly the records a full decode + filter would.
func TestScanPushdownSkipsBlocks(t *testing.T) {
	recs := scanFixture(2000) // several blocks in both blocked formats
	for _, format := range []Format{FormatBlocked, FormatColumnar} {
		t.Run(format.String(), func(t *testing.T) {
			r := TimeRange{From: 500_000, To: 600_000}
			got, stats := scanRecords(t, format, recs, ScanOptions{Range: r})

			var want []Record
			for i := range recs {
				if r.Contains(recs[i].TS) {
					want = append(want, recs[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].TS != want[i].TS || got[i].App != want[i].App {
					t.Fatalf("record %d: got ts=%d app=%d, want ts=%d app=%d",
						i, got[i].TS, got[i].App, want[i].TS, want[i].App)
				}
			}
			if stats.BlocksTotal < 4 {
				t.Fatalf("fixture too small: only %d blocks", stats.BlocksTotal)
			}
			if stats.BlocksSkipped == 0 {
				t.Fatalf("no blocks skipped: stats %+v", stats)
			}
			if stats.BlocksScanned+stats.BlocksSkipped != stats.BlocksTotal {
				t.Fatalf("block accounting broken: %+v", stats)
			}
			if stats.RecordsMatched != int64(len(want)) {
				t.Fatalf("RecordsMatched = %d, want %d", stats.RecordsMatched, len(want))
			}
		})
	}
}

// TestScanAppFilter checks the columnar app predicate: only records of
// the selected apps (plus device-global screen records) come back.
func TestScanAppFilter(t *testing.T) {
	recs := scanFixture(600)
	recs = append(recs, Record{Type: RecScreen, TS: recs[len(recs)-1].TS + 1, ScreenOn: true})
	for _, format := range []Format{FormatBlocked, FormatColumnar} {
		t.Run(format.String(), func(t *testing.T) {
			opt := ScanOptions{
				Range: TimeRange{From: 0, To: 1 << 62},
				Apps:  []uint32{2, 5},
			}
			got, stats := scanRecords(t, format, recs, opt)
			want := 0
			for i := range recs {
				if recs[i].Type == RecScreen || recs[i].App == 2 || recs[i].App == 5 {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("got %d records, want %d", len(got), want)
			}
			for i := range got {
				if got[i].Type != RecScreen && got[i].App != 2 && got[i].App != 5 {
					t.Fatalf("record %d: app %d leaked through the filter", i, got[i].App)
				}
			}
			if stats.RecordsMatched != int64(want) {
				t.Fatalf("RecordsMatched = %d, want %d", stats.RecordsMatched, want)
			}
		})
	}
}

// TestScanUnsealedFile scans an in-progress METR-3 segment: Sync makes
// every written record visible to a streaming reader while the file
// stays unsealed (no footer), which is exactly how the ingest segment
// store serves its live tail.
func TestScanUnsealedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.metr3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewColumnWriter(f, "scan-dev", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rec := Record{Type: RecScreen, TS: Timestamp(100 * i), ScreenOn: i%2 == 0}
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Flush: the file has no index, so the scan must stream.
	var stats ScanStats
	n := 0
	device, err := ScanFile(path, ScanOptions{Range: TimeRange{From: 1000, To: 2000}}, &stats, func(b *RecordBatch) error {
		n += b.Len()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanFile: %v", err)
	}
	if device != "scan-dev" {
		t.Fatalf("device = %q", device)
	}
	if n != 10 { // ts 1000..1900
		t.Fatalf("got %d records, want 10", n)
	}
	if stats.BlocksTotal != 0 {
		t.Fatalf("streaming fallback counted index blocks: %+v", stats)
	}

	// The writer stays usable after Sync: more records, then a real seal.
	for i := 50; i < 60; i++ {
		rec := Record{Type: RecScreen, TS: Timestamp(100 * i), ScreenOn: true}
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	n = 0
	var sealed ScanStats
	if _, err := ScanFile(path, ScanOptions{Range: TimeRange{From: 0, To: 1 << 62}}, &sealed, func(b *RecordBatch) error {
		n += b.Len()
		return nil
	}); err != nil {
		t.Fatalf("ScanFile sealed: %v", err)
	}
	if n != 60 {
		t.Fatalf("sealed scan got %d records, want 60", n)
	}
	if sealed.BlocksTotal == 0 {
		t.Fatal("sealed file should scan via the index")
	}
}

// TestCorruptInvertedBlockRange: a header or index entry whose firstTS
// exceeds its lastTS cannot come from the monotonic writers and must
// read as corrupt, in both the streaming and the seeking paths.
func TestCorruptInvertedBlockRange(t *testing.T) {
	data := craftColumnFile([]byte{byte(RecScreen), 0, 1, 0}, 1, 200, 100)
	if _, err := ReadAll(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("streaming decode of inverted range: got %v, want ErrCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "inv.metr3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileParallel(path, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("indexed decode of inverted range: got %v, want ErrCorrupt", err)
	}
}
