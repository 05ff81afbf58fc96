package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"netenergy/internal/rng"
)

// writeColumnar serialises recs into a METR-3 buffer.
func writeColumnar(t *testing.T, device string, start Timestamp, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewColumnWriter(&buf, device, start)
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
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("writer count %d, wrote %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

func requireRecordsEqual(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if w.Type != g.Type || w.TS != g.TS || w.App != g.App || w.AppName != g.AppName ||
			w.Dir != g.Dir || w.Net != g.Net || w.State != g.State ||
			w.UIKind != g.UIKind || w.ScreenOn != g.ScreenOn || !bytes.Equal(w.Payload, g.Payload) {
			t.Fatalf("record %d mismatch:\nwant %+v\ngot  %+v", i, *w, *g)
		}
	}
}

func TestColumnarRoundTripStreaming(t *testing.T) {
	recs := genRecords(12000)
	data := writeColumnar(t, "dev-3", recs[0].TS, recs)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Device() != "dev-3" || r.Format() != FormatColumnar {
		t.Fatalf("header: device=%q format=%v", r.Device(), r.Format())
	}
	var got []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cp := *rec
		cp.Payload = append([]byte(nil), rec.Payload...)
		if cp.Payload != nil && len(cp.Payload) == 0 {
			cp.Payload = nil
		}
		got = append(got, cp)
	}
	// Canonicalise empty payloads on the expected side too: the batch
	// materialises a packet's empty payload as an empty (non-nil) slice.
	want := make([]Record, len(recs))
	copy(want, recs)
	requireRecordsEqual(t, want, got)
}

func TestColumnarRoundTripParallel(t *testing.T) {
	recs := genRecords(30000)
	data := writeColumnar(t, "dev-par", recs[0].TS, recs)
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.metr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := DetectFileFormat(path); err != nil || f != FormatColumnar {
		t.Fatalf("DetectFileFormat: %v %v", f, err)
	}
	dt, err := ReadFileParallel(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Record, len(dt.Records))
	copy(got, dt.Records)
	for i := range got {
		if got[i].Type == RecPacket && got[i].Payload != nil && len(got[i].Payload) == 0 {
			got[i].Payload = nil
		}
	}
	requireRecordsEqual(t, recs, got)

	// The parallel result must match the sequential read bit for bit.
	seq, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireRecordsEqual(t, seq.Records, dt.Records)
	if dt.Device != "dev-par" || dt.Start != recs[0].TS {
		t.Fatalf("header: %q %d", dt.Device, dt.Start)
	}
	// App table rebuilt from RecAppName records.
	if dt.Apps.Len() == 0 {
		t.Fatal("app table empty after parallel read")
	}
	// One worker runs the same indexed decode as four.
	one, err := ReadFileParallel(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireRecordsEqual(t, dt.Records, one.Records)
	requireCorruptIndexRejected(t, data)
}

func TestColumnarBatchReader(t *testing.T) {
	recs := genRecords(9000)
	data := writeColumnar(t, "dev-b", recs[0].TS, recs)
	br, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if br.Format() != FormatColumnar || br.Device() != "dev-b" {
		t.Fatalf("header: %v %q", br.Format(), br.Device())
	}
	var got []Record
	var rec Record
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatal("empty batch")
		}
		for i := 0; i < b.Len(); i++ {
			b.Record(i, &rec)
			cp := rec
			cp.Payload = append([]byte(nil), rec.Payload...)
			if cp.Payload != nil && len(cp.Payload) == 0 {
				cp.Payload = nil
			}
			got = append(got, cp)
		}
	}
	requireRecordsEqual(t, recs, got)
}

func TestBatchReaderRowFormats(t *testing.T) {
	recs := genRecords(6000)
	for _, f := range []Format{FormatFlat, FormatDeflate, FormatBlocked} {
		dt := &DeviceTrace{Device: "dev-row", Start: recs[0].TS, Records: recs}
		var buf bytes.Buffer
		if err := dt.SerializeFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		br, err := NewBatchReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		var rec Record
		for {
			b, err := br.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b.Len(); i++ {
				b.Record(i, &rec)
				cp := rec
				cp.Payload = append([]byte(nil), rec.Payload...)
				if cp.Payload != nil && len(cp.Payload) == 0 {
					cp.Payload = nil
				}
				got = append(got, cp)
			}
		}
		requireRecordsEqual(t, recs, got)
	}
}

func TestBatchSliceAndAppend(t *testing.T) {
	recs := genRecords(100)
	var b RecordBatch
	for i := range recs {
		b.Append(&recs[i])
	}
	if b.Len() != len(recs) {
		t.Fatalf("batch len %d", b.Len())
	}
	view := b.Slice(10, 60)
	if view.Len() != 50 {
		t.Fatalf("view len %d", view.Len())
	}
	var rec Record
	for i := 0; i < view.Len(); i++ {
		view.Record(i, &rec)
		w := recs[10+i]
		if rec.Type != w.Type || rec.TS != w.TS || rec.App != w.App {
			t.Fatalf("view record %d: %+v vs %+v", i, rec, w)
		}
		if w.Type == RecPacket && !bytes.Equal(rec.Payload, w.Payload) {
			t.Fatalf("view payload %d mismatch", i)
		}
	}
}

// TestColumnWriteBatchMatchesWrite: the same records appended through
// WriteBatch, split into batches at random points, produce a file
// byte-identical to one Write per record — including splits right at,
// just before and just after each 256 KiB block cut.
func TestColumnWriteBatchMatchesWrite(t *testing.T) {
	recs := genRecords(12000)
	want := writeColumnar(t, "dev-b", recs[0].TS, recs)
	_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(want), int64(len(want)))
	if err != nil || !ok || len(blocks) < 3 {
		t.Fatalf("reference file: %d blocks, ok=%v err=%v", len(blocks), ok, err)
	}
	var all RecordBatch
	for i := range recs {
		all.Append(&recs[i])
	}

	src := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		cuts := []int{0, len(recs)}
		end := 0
		for _, b := range blocks[:len(blocks)-1] {
			end += b.Count
			cuts = append(cuts, end+src.Intn(3)-1)
		}
		for i := 0; i < 1+src.Intn(40); i++ {
			cuts = append(cuts, src.Intn(len(recs)))
		}
		sort.Ints(cuts)

		var buf bytes.Buffer
		w, err := NewColumnWriter(&buf, "dev-b", recs[0].TS)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(cuts); i++ {
			part := all.Slice(cuts[i-1], cuts[i])
			if err := w.WriteBatch(&part); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("trial %d: WriteBatch at splits %v differs from per-record Write", trial, cuts)
		}
	}
}

// TestColumnarWideTimestamps exercises the 58+ bit unpack path and the
// w=64 pack path with extreme (forward) timestamp jumps. Backward jumps
// are no longer representable: the writer rejects out-of-order records
// so the seek index's first/last stay honest min/max.
func TestColumnarWideTimestamps(t *testing.T) {
	recs := []Record{
		{Type: RecScreen, TS: 0, ScreenOn: true},
		{Type: RecScreen, TS: 10, ScreenOn: false},
		{Type: RecScreen, TS: math.MaxInt64 / 2, ScreenOn: true},
		{Type: RecScreen, TS: math.MaxInt64/2 + 7, ScreenOn: false},
	}
	data := writeColumnar(t, "wide", 0, recs)
	dt, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireRecordsEqual(t, recs, dt.Records)
}

// TestColumnarRejectsCorrupt flips bytes across a valid file and
// requires every corruption to surface as a trace error, never a panic
// or silent success with different records.
func TestColumnarRejectsCorrupt(t *testing.T) {
	recs := genRecords(3000)
	data := writeColumnar(t, "dev-c", recs[0].TS, recs)
	for off := len(magicColumnar); off < len(data); off += 97 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue // header corruption detected at open
		}
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				break // detected — good
			}
			n++
			if n > len(recs) {
				t.Fatalf("offset %d: decoded more records than written", off)
			}
		}
	}
}

// TestColumnDecodeAllocFree pins the steady-state allocation behaviour of
// the columnar block decode: once the reused batch and scratch have grown
// to the block's shape, decodeColumns must not allocate at all — this is
// what lets the streaming decoder and the ingest hot path recycle one
// RecordBatch per connection indefinitely.
func TestColumnDecodeAllocFree(t *testing.T) {
	recs := genRecords(2000)
	var src RecordBatch
	for i := range recs {
		src.Append(&recs[i])
	}
	first := recs[0].TS
	raw, _ := appendColumns(nil, &src, first, nil)
	h := blockHeader{
		ulen: len(raw), count: src.Len(),
		first: first, lastTS: recs[len(recs)-1].TS,
	}

	var dst RecordBatch
	var u64 []uint64
	var decErr error
	decode := func() {
		u64, decErr = decodeColumns(raw, h, &dst, u64)
	}
	decode() // warm: grow columns and scratch to the block's shape
	if decErr != nil {
		t.Fatal(decErr)
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Fatalf("steady-state column decode allocates %.2f times per block, want 0", allocs)
	}
	if decErr != nil {
		t.Fatal(decErr)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("decoded %d records, want %d", dst.Len(), src.Len())
	}
}
