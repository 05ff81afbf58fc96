package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netenergy/internal/rng"
)

// genRecords builds a deterministic mixed-type record stream big enough to
// span several blocks (payloads are semi-repetitive so DEFLATE has real
// work, as in the synthetic fleets).
func genRecords(n int) []Record {
	src := rng.New(42)
	recs := make([]Record, 0, n+4)
	recs = append(recs,
		Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.example.social"},
		Record{Type: RecAppName, TS: 1000, App: 1, AppName: "com.android.chrome"},
	)
	ts := Timestamp(1000)
	for i := 0; i < n; i++ {
		ts += Timestamp(src.Intn(200000))
		switch src.Intn(5) {
		case 0:
			recs = append(recs, Record{Type: RecProcState, TS: ts,
				App: uint32(src.Intn(2)), State: ProcState(1 + src.Intn(5))})
		case 1:
			recs = append(recs, Record{Type: RecScreen, TS: ts, ScreenOn: src.Bool(0.5)})
		case 2:
			recs = append(recs, Record{Type: RecUIEvent, TS: ts,
				App: uint32(src.Intn(2)), UIKind: UIEventKind(src.Intn(4))})
		default:
			payload := make([]byte, 40+src.Intn(1400))
			for j := range payload {
				payload[j] = byte(j % 7)
			}
			payload[0] = byte(src.Intn(256))
			recs = append(recs, Record{Type: RecPacket, TS: ts, App: uint32(src.Intn(2)),
				Dir: Direction(src.Intn(2)), Net: Network(src.Intn(2)),
				State: ProcState(1 + src.Intn(5)), Payload: payload})
		}
	}
	return recs
}

func writeBlocked(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBlockWriter(&buf, "device-b", 1000)
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
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

func sameRecord(a, b *Record) bool {
	return a.Type == b.Type && a.TS == b.TS && a.App == b.App &&
		a.AppName == b.AppName && a.Dir == b.Dir && a.Net == b.Net &&
		a.State == b.State && a.UIKind == b.UIKind && a.ScreenOn == b.ScreenOn &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestBlockedRoundTrip(t *testing.T) {
	recs := genRecords(5000) // several 256 KiB blocks
	data := writeBlocked(t, recs)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Device() != "device-b" || r.Start() != 1000 {
		t.Fatalf("header: device=%q start=%d", r.Device(), r.Start())
	}
	if r.Format() != FormatBlocked {
		t.Fatalf("format = %v, want %v", r.Format(), FormatBlocked)
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !sameRecord(got, &recs[i]) {
			t.Fatalf("record %d mismatch:\n got %v\nwant %v", i, got, recs[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBlockedIndex(t *testing.T) {
	recs := genRecords(5000)
	data := writeBlocked(t, recs)
	device, start, blocks, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || !ok {
		t.Fatalf("ReadBlockIndex: ok=%v err=%v", ok, err)
	}
	if device != "device-b" || start != 1000 {
		t.Fatalf("header: device=%q start=%d", device, start)
	}
	if len(blocks) < 3 {
		t.Fatalf("expected several blocks, got %d", len(blocks))
	}
	total := 0
	for i, b := range blocks {
		total += b.Count
		if b.First > b.Last {
			t.Errorf("block %d: First %d > Last %d", i, b.First, b.Last)
		}
		if b.UncompLen <= 0 || b.CompLen <= 0 {
			t.Errorf("block %d: degenerate lengths %+v", i, b)
		}
	}
	if total != len(recs) {
		t.Fatalf("index counts %d records, wrote %d", total, len(recs))
	}
}

func TestBlockedParallelMatchesSequential(t *testing.T) {
	recs := genRecords(5000)
	data := writeBlocked(t, recs)
	path := filepath.Join(t.TempDir(), "u.metr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := ReadFileParallel(path, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Device != seq.Device || par.Start != seq.Start {
			t.Fatalf("workers=%d: header mismatch", workers)
		}
		if len(par.Records) != len(seq.Records) {
			t.Fatalf("workers=%d: %d records vs %d", workers, len(par.Records), len(seq.Records))
		}
		for i := range seq.Records {
			if !sameRecord(&par.Records[i], &seq.Records[i]) {
				t.Fatalf("workers=%d: record %d differs", workers, i)
			}
		}
		if got, want := par.Apps.Names(), seq.Apps.Names(); len(got) != len(want) {
			t.Fatalf("workers=%d: app tables differ", workers)
		}
	}
	requireCorruptIndexRejected(t, data)
}

// requireCorruptIndexRejected flips one byte of data's footer index and
// requires ReadFileParallel to reject the file as ErrCorrupt at one
// worker and at several: the outcome of a read must not depend on the
// worker count.
func requireCorruptIndexRejected(t *testing.T, data []byte) {
	t.Helper()
	mut := append([]byte(nil), data...)
	idxLen := int(binary.LittleEndian.Uint64(mut[len(mut)-footerLen:]))
	mut[len(mut)-footerLen-idxLen+1] ^= 0xff // the index's entry count
	path := filepath.Join(t.TempDir(), "bad-index.metr")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if dt, err := ReadFileParallel(path, workers); !errors.Is(err, ErrCorrupt) {
			n := -1
			if dt != nil {
				n = len(dt.Records)
			}
			t.Fatalf("workers=%d: corrupt index read %d records, err=%v, want ErrCorrupt", workers, n, err)
		}
	}
}

func TestBlockedParallelFallsBackOnV1(t *testing.T) {
	recs := sampleRecords()
	for _, format := range []Format{FormatFlat, FormatDeflate} {
		var buf bytes.Buffer
		dt := &DeviceTrace{Device: "d", Start: 1000, Records: recs}
		if err := dt.SerializeFormat(&buf, format); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "u.metr")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFileParallel(path, 4)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if len(got.Records) != len(recs) {
			t.Fatalf("%v: %d records, want %d", format, len(got.Records), len(recs))
		}
	}
}

func TestBlockedTruncatedFooterStreamsAnyway(t *testing.T) {
	recs := genRecords(3000)
	data := writeBlocked(t, recs)
	// Cut off the footer and half the index: the seekable path must decline
	// (ok=false) and the streaming fallback must still deliver every block.
	cut := data[:len(data)-footerLen-10]
	if _, _, _, ok, _ := ReadBlockIndex(bytes.NewReader(cut), int64(len(cut))); ok {
		t.Fatal("truncated footer accepted")
	}
	path := filepath.Join(t.TempDir(), "u.metr")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	dt, err := ReadFileParallel(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dt.Records) != len(recs) {
		t.Fatalf("read %d records, want %d", len(dt.Records), len(recs))
	}
}

// TestStreamBlockHeaderErrors pins the error classes of the streaming
// block-header read, for both blocked containers: a header cut short by
// EOF is ErrTruncated, an overlong varint is ErrCorrupt, and a read that
// fails mid-header surfaces the wrapped I/O error, not a format error.
func TestStreamBlockHeaderErrors(t *testing.T) {
	errDisk := errors.New("simulated disk failure")
	for _, magic := range [][]byte{magicBlocked, magicColumnar} {
		head := appendFileHeader(append([]byte(nil), magic...), "d", 0)
		head = append(head, blockTag)
		firstErr := func(r io.Reader) error {
			tr, err := NewReader(r)
			if err != nil {
				t.Fatal(err)
			}
			_, err = tr.Next()
			return err
		}
		short := append(append([]byte(nil), head...), 0x10, 0x08) // ulen, clen, then EOF
		if err := firstErr(bytes.NewReader(short)); err != ErrTruncated {
			t.Errorf("%q short header: err=%v, want ErrTruncated", magic, err)
		}
		overlong := append(append([]byte(nil), head...), bytes.Repeat([]byte{0x80}, 11)...)
		if err := firstErr(bytes.NewReader(overlong)); err != ErrCorrupt {
			t.Errorf("%q overlong varint: err=%v, want ErrCorrupt", magic, err)
		}
		err := firstErr(&failAfterReader{data: short, err: errDisk})
		if !errors.Is(err, errDisk) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%q failed read: err=%v, want wrapped I/O error", magic, err)
		}
	}
}

func TestBlockedCorruptionDetected(t *testing.T) {
	recs := genRecords(800)
	data := writeBlocked(t, recs)
	headerLen := len(magicBlocked) + 1 + len("device-b") + 2
	for pos := headerLen; pos < len(data); pos += 997 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xff
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		seen := 0
		for {
			rec, err := r.Next()
			if err != nil {
				break // any clean error is acceptable; silence is not
			}
			if !sameRecord(rec, &recs[seen]) {
				// A corrupted block must never decode to wrong records: the
				// CRC covers the whole payload.
				t.Fatalf("flip at %d: record %d silently wrong", pos, seen)
			}
			seen++
		}
	}
}

func TestBlockedEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBlockWriter(&buf, "empty", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil || !ok || len(blocks) != 0 {
		t.Fatalf("empty index: ok=%v blocks=%d err=%v", ok, len(blocks), err)
	}
}

// TestBlockDecodeAllocFree guards the pooled-scratch claim: once the reader
// is warm, serving records out of a decoded block allocates nothing, and
// block transitions amortize to well under 1/100 alloc per record.
func TestBlockDecodeAllocFree(t *testing.T) {
	recs := genRecords(20000)
	data := writeBlocked(t, recs)
	_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || !ok || len(blocks) < 2 {
		t.Fatalf("index: ok=%v blocks=%d err=%v", ok, len(blocks), err)
	}

	// Serving records out of an already-decoded block must allocate zero:
	// decode the first block (and consume the two RecAppName records, whose
	// name strings legitimately allocate), then count mallocs over the rest
	// of that block.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 2; i < blocks[0].Count; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got != 0 {
		t.Errorf("%d allocs serving %d records from a decoded block, want 0", got, blocks[0].Count-1)
	}

	// Whole-file amortized budget: block transitions pay for buffer growth
	// and the stdlib inflater's per-block Huffman tables, nothing scales
	// with the record count.
	n := len(recs)
	allocs := testing.AllocsPerRun(2, func() {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRecord := allocs / float64(n); perRecord > 0.25 {
		t.Errorf("%.4f allocs/record amortized (total %v over %d records)", perRecord, allocs, n)
	}
}

// rawIndexEntry is one hand-crafted footer-index entry, fields as encoded.
type rawIndexEntry struct {
	od, ul, cl, rc uint64
	ft, lt         int64
}

// craftIndexFile assembles a METR-2 file consisting of only the header and
// a CRC-intact footer index carrying the given raw entries (declaredCount
// is what the index claims, independent of len(entries)). No blocks are
// written: the point is to probe ReadBlockIndex's validation of
// attacker-controlled index fields before any allocation they size.
func craftIndexFile(declaredCount uint64, entries []rawIndexEntry) []byte {
	out := append([]byte(nil), magicBlocked...)
	out = appendFileHeader(out, "d", 0)
	idx := []byte{indexTag}
	idx = binary.AppendUvarint(idx, declaredCount)
	for _, e := range entries {
		idx = binary.AppendUvarint(idx, e.od)
		idx = binary.AppendUvarint(idx, e.ul)
		idx = binary.AppendUvarint(idx, e.cl)
		idx = binary.AppendVarint(idx, e.ft)
		idx = binary.AppendVarint(idx, e.lt)
		idx = binary.AppendUvarint(idx, e.rc)
	}
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagic...)
	return append(out, idx...)
}

// TestBlockIndexRejectsCraftedEntries pins the fix for two OOM bugs: a
// tiny file whose CRC-valid index declared a huge block offset or record
// count made ReadBlockIndex/ReadFileParallel size allocations from those
// fields (make([]byte, offset) resp. make([]Record, count)) and abort the
// process. Every crafted variant must come back as ErrCorrupt instead.
func TestBlockIndexRejectsCraftedEntries(t *testing.T) {
	cases := []struct {
		name    string
		count   uint64
		entries []rawIndexEntry
	}{
		{"offset far beyond file size", 1,
			[]rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}},
		{"offset delta overflows negative", 2,
			[]rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1}, {od: 1 << 63, ul: 16, cl: 16, rc: 1}}},
		{"zero offset delta (not strictly increasing)", 2,
			[]rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1}, {od: 0, ul: 16, cl: 16, rc: 1}}},
		{"record count bomb", 1,
			[]rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}},
		{"declared count exceeds index capacity", 1 << 40, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craftIndexFile(tc.count, tc.entries)
			_, _, _, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ok=%v err=%v, want ok=false ErrCorrupt", ok, err)
			}
		})
	}
}

// craftBlockFile assembles a METR-2 file with a single hand-built block
// (raw is the uncompressed frame stream, count/first/last the declared
// header fields) plus a matching CRC-intact footer index.
func craftBlockFile(raw []byte, count int, first, last Timestamp) []byte {
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	payload := comp.Bytes()

	out := append([]byte(nil), magicBlocked...)
	out = appendFileHeader(out, "d", 0)
	blkOff := int64(len(out))
	out = append(out, blockTag)
	out = binary.AppendUvarint(out, uint64(len(raw)))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = binary.AppendVarint(out, int64(first))
	out = binary.AppendVarint(out, int64(last))
	out = binary.AppendUvarint(out, uint64(count))
	out = append(out, payload...)

	idx := []byte{indexTag}
	idx = binary.AppendUvarint(idx, 1)
	idx = binary.AppendUvarint(idx, uint64(blkOff))
	idx = binary.AppendUvarint(idx, uint64(len(raw)))
	idx = binary.AppendUvarint(idx, uint64(len(payload)))
	idx = binary.AppendVarint(idx, int64(first))
	idx = binary.AppendVarint(idx, int64(last))
	idx = binary.AppendUvarint(idx, 1)
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagic...)
	return append(out, idx...)
}

// TestBlockTrailingBytesRejected pins the fix for silent trailing bytes: a
// block whose uncompressed payload carries bytes past the last declared
// record must fail as ErrCorrupt on both the streaming and the indexed
// parallel path (and the same block without the trailing bytes must read
// cleanly, proving the check is not over-strict).
func TestBlockTrailingBytesRejected(t *testing.T) {
	// One RecScreen record at ts=100: frame = type, bodyLen, body
	// (body = tsDelta:varint(0) + on:byte).
	frame := []byte{byte(RecScreen), 0x02, 0x00, 0x01}

	readAllVia := func(t *testing.T, data []byte) error {
		t.Helper()
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			if _, err := r.Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	clean := craftBlockFile(frame, 1, 100, 100)
	if err := readAllVia(t, clean); err != nil {
		t.Fatalf("clean crafted block: %v", err)
	}

	dirty := craftBlockFile(append(append([]byte(nil), frame...), 0xAA, 0xBB), 1, 100, 100)
	if err := readAllVia(t, dirty); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("streaming: err=%v, want ErrCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "u.metr")
	if err := os.WriteFile(path, dirty, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileParallel(path, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("parallel: err=%v, want ErrCorrupt", err)
	}
}

func TestBlockedDeviceNameBoundary(t *testing.T) {
	// The shared cap must round-trip at the boundary through every
	// container, and be rejected at write time one byte past it.
	atCap := strings.Repeat("d", maxDeviceName)
	past := atCap + "x"
	for _, format := range []Format{FormatFlat, FormatDeflate, FormatBlocked} {
		var buf bytes.Buffer
		w, err := NewFormatWriter(&buf, format, atCap, 7)
		if err != nil {
			t.Fatalf("%v: writer rejected %d-byte name: %v", format, maxDeviceName, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: reader rejected %d-byte name: %v", format, maxDeviceName, err)
		}
		if r.Device() != atCap {
			t.Fatalf("%v: device name did not round-trip", format)
		}
		if _, err := NewFormatWriter(io.Discard, format, past, 7); err == nil {
			t.Fatalf("%v: writer accepted %d-byte name the reader would refuse", format, len(past))
		}
	}
}
