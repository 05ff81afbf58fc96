package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"netenergy/internal/lz"
)

// FuzzReader feeds arbitrary bytes to the METR reader: every input must
// yield records or a clean error, never a panic or unbounded allocation.
func FuzzReader(f *testing.F) {
	// Seed: a valid small trace.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "dev", 1000)
	w.Write(&Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"})
	w.Write(&Record{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
		Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}})
	w.Write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("METR1\n"))
	f.Add([]byte{})

	// Seed: a valid blocked (METR-2) trace, so the fuzzer explores the
	// block decoder too.
	var bbuf bytes.Buffer
	bw, _ := NewBlockWriter(&bbuf, "dev", 1000)
	bw.Write(&Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"})
	bw.Write(&Record{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
		Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}})
	bw.Flush()
	f.Add(bbuf.Bytes())

	// Seed: the nesting attack — a compressed container whose decompressed
	// stream opens another compressed container. The reader must reject it
	// at the depth cap instead of nesting flate readers without bound.
	f.Add(nestedContainer(3, buf.Bytes()))
	f.Add(nestedContainer(1, bbuf.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if rec.Type == RecPacket && len(rec.Payload) > maxRecordLen {
				t.Fatalf("oversized payload accepted: %d", len(rec.Payload))
			}
		}
	})
}

// FuzzReadFileParallel feeds arbitrary bytes to the seeking (footer-index)
// paths: the whole-file decode used by core.OpenParallel (ReadBlockIndex
// plus the parallel block decode) and the range-pushdown scan behind
// tsq (ScanFile, over the full range and over a narrow window with an
// app filter). Every input must yield records or a clean error, never a
// panic or an allocation sized by attacker-controlled index fields (the
// index is CRC-protected against corruption, not against being crafted
// whole).
func FuzzReadFileParallel(f *testing.F) {
	// Seed: a valid multi-block METR-2 file so the fuzzer starts from an
	// intact footer index and mutates its fields.
	var bbuf bytes.Buffer
	bw, _ := NewBlockWriter(&bbuf, "dev", 1000)
	bw.Write(&Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"})
	bw.Write(&Record{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
		Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}})
	bw.Write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true})
	bw.Flush()
	f.Add(bbuf.Bytes())

	// Seed: a v1 file, covering the streaming fallback behind the same API.
	var vbuf bytes.Buffer
	w, _ := NewWriter(&vbuf, "dev", 1000)
	w.Write(&Record{Type: RecScreen, TS: 2000, ScreenOn: true})
	w.Flush()
	f.Add(vbuf.Bytes())

	// Seeds: the two index attacks from the bug sweep — a crafted footer
	// declaring a ~1 TiB block offset resp. a 2^50 record count, each of
	// which previously drove a fatal OOM out of a ~30-byte file.
	f.Add(craftIndexFile(1, []rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}))
	f.Add(craftIndexFile(1, []rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}))
	f.Add([]byte{})

	// Seeds: a valid METR-3 file plus the same index attacks against its
	// footer, so the fuzzer reaches the columnar indexed decode
	// (decodeColumnBatchAt) and the columnar index validation too.
	f.Add(metr3Sample())
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}))
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.metr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if dt, err := ReadFileParallel(path, 4); err == nil {
			for i := range dt.Records {
				if dt.Records[i].Type == RecPacket && len(dt.Records[i].Payload) > maxRecordLen {
					t.Fatalf("oversized payload accepted: %d", len(dt.Records[i].Payload))
				}
			}
		}
		for _, opt := range []ScanOptions{
			{Range: TimeRange{From: math.MinInt64, To: math.MaxInt64}},
			{Range: TimeRange{From: 1500, To: 2500}, Apps: []uint32{0}},
		} {
			ScanFile(path, opt, nil, func(b *RecordBatch) error { //nolint:errcheck // any clean error is fine
				for j := 0; j < b.Len(); j++ {
					if len(b.Bytes(j)) > maxRecordLen {
						t.Fatalf("oversized scanned payload accepted: %d", len(b.Bytes(j)))
					}
				}
				return nil
			})
		}
	})
}

// metr3Sample builds a small valid METR-3 file covering every record type,
// the common seed for the columnar fuzzers.
func metr3Sample() []byte {
	var buf bytes.Buffer
	w, _ := NewColumnWriter(&buf, "dev", 1000)
	w.Write(&Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"})
	w.Write(&Record{Type: RecProcState, TS: 1500, App: 0, State: StateForeground})
	w.Write(&Record{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
		Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}})
	w.Write(&Record{Type: RecUIEvent, TS: 2500, App: 0, UIKind: 1})
	w.Write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true})
	w.Flush()
	return buf.Bytes()
}

// craftColumnFile assembles a METR-3 file with one hand-built block whose
// uncompressed columnar image is raw and whose CRC-intact header declares
// count/first/last, plus a matching footer index — the tool for probing
// decodeColumns with images the writer would never produce.
func craftColumnFile(raw []byte, count int, first, last Timestamp) []byte {
	var lza lz.Appender
	payload := lza.Compress(nil, raw)

	out := append([]byte(nil), magicColumnar...)
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
	idx = binary.AppendUvarint(idx, uint64(count))
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagicColumnar...)
	return append(out, idx...)
}

// craftColumnIndexFile is craftIndexFile for the METR-3 container: header
// plus a CRC-intact footer index carrying the given raw entries, no blocks.
func craftColumnIndexFile(declaredCount uint64, entries []rawIndexEntry) []byte {
	out := append([]byte(nil), magicColumnar...)
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
	idx = append(idx, footerMagicColumnar...)
	return append(out, idx...)
}

// FuzzMETR3Decoder feeds arbitrary bytes to the METR-3 columnar decoder
// through both the per-record reader and the zero-copy batch reader. Every
// input must yield records or a clean error (crafted inputs as ErrCorrupt),
// never a panic or an allocation sized by unvalidated header fields.
func FuzzMETR3Decoder(f *testing.F) {
	sample := metr3Sample()
	f.Add(sample)
	f.Add([]byte("METR3\n"))
	f.Add([]byte{})

	// Seed: bitpack width overflow — a CRC-intact block whose timestamp
	// column declares a 200-bit width; the decoder must reject widths over
	// 64 before unpacking rather than index out of the packed bytes.
	f.Add(craftColumnFile([]byte{byte(RecScreen), 0, 1, 200}, 1, 100, 100))
	// Seed: maximum width with no packed bytes behind it (truncated column).
	f.Add(craftColumnFile([]byte{byte(RecScreen), 0, 1, 64}, 1, 100, 100))
	// Seed: a length column assigning blob bytes to a record type that
	// carries none.
	f.Add(craftColumnFile([]byte{byte(RecScreen), 0, 1, 0, 0, 8, 0xFF, 0xAA}, 1, 100, 100))
	// Seed: the nested-bomb — a compressed container whose payload is a
	// METR-3 file; the depth cap must refuse it like any other nesting.
	f.Add(nestedContainer(2, sample))
	// Seeds: crafted footer indexes declaring a ~1 TiB offset resp. a 2^50
	// record count — the METR-2 OOM attacks aimed at the columnar footer.
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}))
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Per-record streaming path.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			for i := 0; i < 10000; i++ {
				rec, err := r.Next()
				if err != nil {
					break
				}
				if rec.Type == RecPacket && len(rec.Payload) > maxRecordLen {
					t.Fatalf("oversized payload accepted: %d", len(rec.Payload))
				}
			}
		}
		// Batch path: the zero-copy block server must fail just as cleanly.
		br, err := NewBatchReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			b, err := br.Next()
			if err != nil {
				return
			}
			for j := 0; j < b.Len(); j++ {
				if len(b.Bytes(j)) > maxRecordLen {
					t.Fatalf("oversized batch payload accepted: %d", len(b.Bytes(j)))
				}
			}
		}
	})
}
