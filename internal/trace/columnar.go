package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"netenergy/internal/lz"
)

// The METR-3 columnar container:
//
//	file    := "METR3\n" header block* index footer
//	header  := deviceLen:uvarint device:bytes start:varint
//	block   := 'B' ulen:uvarint clen:uvarint crc32c:uint32le
//	           firstTS:varint lastTS:varint count:uvarint payload:clen-bytes
//	payload := LZ(columns)                                (internal/lz)
//	columns := types:count-bytes flags:count-bytes aux:count-bytes
//	           tsWidth:byte   tsDeltas:bitpacked          (zigzag of TS[i]-TS[i-1], anchored at firstTS)
//	           appWidth:byte  apps:bitpacked
//	           lenWidth:byte  lens:bitpacked              (payload / app-name byte counts)
//	           blob:bytes                                 (concatenated payloads and names, sum(lens) bytes)
//	index   := 'I' count:uvarint entry*                   (as METR-2)
//	footer  := indexLen:uint64le indexCRC32C:uint32le "3RTEM\n"
//
// The block, index and footer skeleton is METR-2's exactly — same
// header fields, same CRC32C over the compressed payload, same
// delta-anchoring of timestamps at firstTS so blocks decode
// independently — but the payload is column-oriented: one slice per
// field, bitpacked where the values are narrow, compressed with the
// dependency-free byte-oriented LZ codec instead of DEFLATE. A block
// therefore decodes straight into a RecordBatch (the in-memory columnar
// form) with no per-record varint walk, which is where the multi-GB/s
// decode rate comes from; the flat Record view is materialised only at
// the edges that still want rows.
//
// Every field of a hostile block is validated against the block's own
// declared ulen before any allocation is sized from it: column widths
// are capped, the three byte columns and three packed columns must fit
// inside ulen, and the blob must be exactly the declared lengths' sum.
// Malformed blocks fail as ErrCorrupt, never panic or over-allocate.

var (
	magicColumnar       = []byte("METR3\n")
	footerMagicColumnar = []byte("3RTEM\n")
)

// zigzagEnc maps a signed delta to an unsigned value with small
// magnitudes staying small.
func zigzagEnc(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// zigzagDec inverts zigzagEnc.
func zigzagDec(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// packBits appends len(vals) values of w bits each to dst, little-endian
// bit order. Every value must be < 1<<w (w == 64 admits all).
//
//repolint:noalloc
func packBits(dst []byte, vals []uint64, w uint) []byte {
	if w == 0 {
		return dst
	}
	base := len(dst)
	total := (len(vals)*int(w) + 7) / 8
	for len(dst) < base+total {
		dst = append(dst, 0)
	}
	buf := dst[base:]
	bit := 0
	for _, v := range vals {
		rem := int(w)
		for rem > 0 {
			bi := bit >> 3
			sh := bit & 7
			take := 8 - sh
			if take > rem {
				take = rem
			}
			buf[bi] |= byte(v << sh)
			v >>= uint(take)
			bit += take
			rem -= take
		}
	}
	return dst
}

// unpackBits fills dst with len(dst) w-bit values from src, which must
// hold exactly (len(dst)*w+7)/8 bytes.
//
//repolint:noalloc
func unpackBits(dst []uint64, src []byte, w uint) {
	if w == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if w >= 58 {
		// Wide values cannot use the single-load fast path (shift+width
		// may exceed 64 bits); gather byte-wise.
		for i := range dst {
			dst[i] = gatherBits(src, i*int(w), w)
		}
		return
	}
	mask := uint64(1)<<w - 1
	bit := 0
	for i := range dst {
		bi := bit >> 3
		if bi+8 <= len(src) {
			dst[i] = binary.LittleEndian.Uint64(src[bi:]) >> uint(bit&7) & mask
		} else {
			dst[i] = gatherBits(src, bit, w)
		}
		bit += int(w)
	}
}

// gatherBits extracts w bits starting at bit offset bit from src,
// byte-at-a-time (used near the end of the packed region, where an
// 8-byte load would run past the slice).
//
//repolint:noalloc
func gatherBits(src []byte, bit int, w uint) uint64 {
	var v uint64
	var got uint
	for got < w {
		bi := bit >> 3
		sh := uint(bit & 7)
		take := 8 - sh
		if take > w-got {
			take = w - got
		}
		v |= uint64(src[bi]>>sh) & (1<<take - 1) << got
		got += uint(take)
		bit += int(take)
	}
	return v
}

// maxWidth returns the bit width needed for the widest value.
//
//repolint:noalloc
func maxWidth(vals []uint64) uint {
	w := 0
	for _, v := range vals {
		if n := bits.Len64(v); n > w {
			w = n
		}
	}
	return uint(w)
}

// appendColumns appends the uncompressed columnar image of b (anchored
// at first) to dst, reusing scratch for the value staging. It returns
// the extended dst and scratch.
func appendColumns(dst []byte, b *RecordBatch, first Timestamp, scratch []uint64) ([]byte, []uint64) {
	n := b.Len()
	for _, t := range b.Types {
		dst = append(dst, byte(t))
	}
	dst = append(dst, b.Flags...)
	dst = append(dst, b.Aux...)

	scratch = scratch[:0]
	prev := first
	for _, ts := range b.TS {
		scratch = append(scratch, zigzagEnc(int64(ts-prev)))
		prev = ts
	}
	w := maxWidth(scratch)
	dst = append(dst, byte(w))
	dst = packBits(dst, scratch, w)

	scratch = scratch[:0]
	for _, a := range b.App {
		scratch = append(scratch, uint64(a))
	}
	w = maxWidth(scratch)
	dst = append(dst, byte(w))
	dst = packBits(dst, scratch, w)

	scratch = scratch[:0]
	for i := 0; i < n; i++ {
		scratch = append(scratch, uint64(b.Off[i+1]-b.Off[i]))
	}
	w = maxWidth(scratch)
	dst = append(dst, byte(w))
	dst = packBits(dst, scratch, w)

	return append(dst, b.Blob...), scratch
}

// decodeColumns decodes the columnar image raw (one block's
// uncompressed payload) into b, whose Blob will alias raw. u64 is
// scratch for unpacked values and is returned grown.
func decodeColumns(raw []byte, h blockHeader, b *RecordBatch, u64 []uint64) ([]uint64, error) {
	n := h.count
	b.Reset()
	if n == 0 {
		if len(raw) != 0 {
			return u64, ErrCorrupt
		}
		return u64, nil
	}
	// Three byte columns plus three width bytes is the floor; anything
	// smaller cannot hold n records.
	if len(raw) < 3*n+3 {
		return u64, ErrCorrupt
	}
	if cap(u64) < n {
		u64 = make([]uint64, n)
	}
	u64 = u64[:n]
	b.Types = sliceCap(b.Types, n)
	b.TS = sliceCap(b.TS, n)
	b.App = sliceCap(b.App, n)
	b.Flags = sliceCap(b.Flags, n)
	b.Aux = sliceCap(b.Aux, n)
	b.Off = sliceCap(b.Off, n+1)

	p := 0
	for i := 0; i < n; i++ {
		t := raw[p+i]
		if t == 0 || t > byte(RecScreen) {
			return u64, ErrCorrupt
		}
		b.Types[i] = RecordType(t)
	}
	p += n
	copy(b.Flags, raw[p:p+n])
	p += n
	copy(b.Aux, raw[p:p+n])
	p += n

	// Timestamp deltas.
	w := uint(raw[p])
	p++
	if w > 64 {
		return u64, ErrCorrupt
	}
	nb := (n*int(w) + 7) / 8
	if len(raw)-p < nb {
		return u64, ErrCorrupt
	}
	unpackBits(u64, raw[p:p+nb], w)
	p += nb
	prev := h.first
	for i := 0; i < n; i++ {
		prev += Timestamp(zigzagDec(u64[i]))
		b.TS[i] = prev
	}
	if prev != h.lastTS {
		return u64, ErrCorrupt
	}

	// App IDs.
	if len(raw)-p < 1 {
		return u64, ErrCorrupt
	}
	w = uint(raw[p])
	p++
	if w > 32 {
		return u64, ErrCorrupt
	}
	nb = (n*int(w) + 7) / 8
	if len(raw)-p < nb {
		return u64, ErrCorrupt
	}
	unpackBits(u64, raw[p:p+nb], w)
	p += nb
	for i := 0; i < n; i++ {
		b.App[i] = uint32(u64[i])
	}

	// Variable-length byte counts, validated per record type, then the
	// blob itself, which must be exactly the declared lengths' sum.
	if len(raw)-p < 1 {
		return u64, ErrCorrupt
	}
	w = uint(raw[p])
	p++
	if w > 32 {
		return u64, ErrCorrupt
	}
	nb = (n*int(w) + 7) / 8
	if len(raw)-p < nb {
		return u64, ErrCorrupt
	}
	unpackBits(u64, raw[p:p+nb], w)
	p += nb
	var sum uint64
	b.Off[0] = 0
	for i := 0; i < n; i++ {
		l := u64[i]
		if l > maxRecordLen {
			return u64, ErrCorrupt
		}
		if l != 0 && b.Types[i] != RecAppName && b.Types[i] != RecPacket {
			return u64, ErrCorrupt
		}
		sum += l
		if sum > uint64(len(raw)-p) {
			return u64, ErrCorrupt
		}
		b.Off[i+1] = uint32(sum)
	}
	if sum != uint64(len(raw)-p) {
		return u64, ErrCorrupt
	}
	b.Blob = raw[p:]
	return u64, nil
}

// sliceCap resizes s to length n, reallocating only when capacity is
// short.
func sliceCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ColumnWriter streams records into a METR-3 columnar container. It
// satisfies the RecordWriter contract; Flush must be the final call.
type ColumnWriter struct {
	w     io.Writer
	off   int64
	batch RecordBatch
	raw   []byte
	comp  []byte
	hdr   []byte
	u64   []uint64
	lza   *lz.Appender
	first Timestamp
	last  Timestamp
	count uint64
	index []BlockInfo
	err   error
}

// NewColumnWriter writes the METR-3 file header and returns a
// ColumnWriter.
func NewColumnWriter(w io.Writer, device string, start Timestamp) (*ColumnWriter, error) {
	if err := checkDeviceName(device); err != nil {
		return nil, err
	}
	hdr := append([]byte(nil), magicColumnar...)
	hdr = appendFileHeader(hdr, device, start)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &ColumnWriter{w: w, off: int64(len(hdr)), lza: new(lz.Appender)}, nil
}

// Count returns the number of records written so far.
func (w *ColumnWriter) Count() uint64 { return w.count }

// Write appends one record to the current block, cutting a block when
// the estimated uncompressed image reaches the target size. It returns
// the first error encountered and is a no-op afterwards.
func (w *ColumnWriter) Write(r *Record) error {
	if err := w.admit(r.Type, r.TS); err != nil {
		return err
	}
	w.batch.Append(r)
	return w.appended(r.TS)
}

// WriteBatch appends every record of b, copying columns straight between
// arenas with RecordBatch.AppendFrom. Each record passes the same type
// check, ordering gate and block-cut rule as Write, so the bytes written
// are identical to one Write per record. On error the records before the
// offending one are kept and the writer is poisoned, as with Write.
func (w *ColumnWriter) WriteBatch(b *RecordBatch) error {
	for i, typ := range b.Types {
		if err := w.admit(typ, b.TS[i]); err != nil {
			return err
		}
		w.batch.AppendFrom(b, i)
		if err := w.appended(b.TS[i]); err != nil {
			return err
		}
	}
	return w.err
}

// admit checks one record about to be appended: a known type, and a
// timestamp no older than the last one written.
func (w *ColumnWriter) admit(typ RecordType, ts Timestamp) error {
	if w.err != nil {
		return w.err
	}
	if typ == RecInvalid || typ > RecScreen {
		w.err = fmt.Errorf("trace: cannot write record type %v", typ)
		return w.err
	}
	// Same monotonicity gate as BlockWriter.Write: pushdown scans treat
	// the positional first/last block timestamps as min/max, so an
	// out-of-order record would be silently skipped by windowed queries.
	// w.last survives block cuts (unlike w.first), so it is the reference.
	if w.count > 0 && ts < w.last {
		w.err = fmt.Errorf("trace: record %d (ts=%d) precedes ts=%d: %w",
			w.count, ts, w.last, ErrOutOfOrder)
		return w.err
	}
	if w.batch.Len() == 0 {
		w.first = ts
	}
	return nil
}

// appended records a record just added to the current block and cuts the
// block when its estimated uncompressed image reaches the target size.
func (w *ColumnWriter) appended(ts Timestamp) error {
	w.last = ts
	w.count++
	// ~11 bytes/record covers the three byte columns plus typical packed
	// timestamp/app/len widths; the blob dominates for packet-heavy data.
	if len(w.batch.Blob)+11*w.batch.Len() >= targetBlockSize {
		if err := w.cutBlock(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// cutBlock encodes, compresses and writes the accumulated batch as one
// block.
func (w *ColumnWriter) cutBlock() error {
	n := w.batch.Len()
	if n == 0 {
		return nil
	}
	w.raw, w.u64 = appendColumns(w.raw[:0], &w.batch, w.first, w.u64)
	w.comp = w.lza.Compress(w.comp[:0], w.raw)
	crc := crc32.Checksum(w.comp, castagnoli)

	hdr := append(w.hdr[:0], blockTag)
	hdr = binary.AppendUvarint(hdr, uint64(len(w.raw)))
	hdr = binary.AppendUvarint(hdr, uint64(len(w.comp)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc)
	hdr = binary.AppendVarint(hdr, int64(w.first))
	hdr = binary.AppendVarint(hdr, int64(w.last))
	hdr = binary.AppendUvarint(hdr, uint64(n))
	w.hdr = hdr
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(w.comp); err != nil {
		return err
	}
	w.index = append(w.index, BlockInfo{Offset: w.off, CompLen: len(w.comp),
		UncompLen: len(w.raw), First: w.first, Last: w.last, Count: n})
	w.off += int64(len(hdr) + len(w.comp))
	w.batch.Reset()
	return nil
}

// Flush writes the final partial block, the footer index and the
// trailer. It must be the last call on the writer.
func (w *ColumnWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.cutBlock(); err != nil {
		w.err = err
		return err
	}
	idx := appendBlockIndex(w.hdr[:0], w.index, footerMagicColumnar)
	if _, err := w.w.Write(idx); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Sync cuts the current partial block and writes it out, so a streaming
// reader opening the file sees every record written so far. Unlike Flush
// it writes no index or footer: the file stays unsealed and the writer
// stays usable — the ingest segment store calls Sync before serving a
// query over an in-progress segment, whose missing footer routes readers
// onto the streaming (non-seeking) path.
func (w *ColumnWriter) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.cutBlock(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// columnDecoder is the streaming METR-3 decoder behind Reader.Next and
// BatchReader.Next: it decompresses one block at a time into a reused
// RecordBatch and serves records (or the whole batch) from it.
type columnDecoder struct {
	s     blockStream
	raw   []byte
	u64   []uint64
	batch RecordBatch
	idx   int
	rec   Record
}

func newColumnDecoder(br *bufio.Reader) *columnDecoder {
	return &columnDecoder{s: blockStream{br: br}}
}

// loadBlock reads and decodes the next block into the batch, returning
// io.EOF at a clean end of file.
func (d *columnDecoder) loadBlock() error {
	for {
		h, comp, err := d.s.next()
		if err != nil {
			return err
		}
		d.raw = sliceCap(d.raw, h.ulen)
		if err := lz.Decompress(d.raw, comp); err != nil {
			return ErrCorrupt
		}
		if d.u64, err = decodeColumns(d.raw, h, &d.batch, d.u64); err != nil {
			return err
		}
		d.idx = 0
		if d.batch.Len() > 0 {
			return nil
		}
		// Zero-count block: keep scanning.
	}
}

// next returns the next record in file order.
func (d *columnDecoder) next() (*Record, error) {
	if d.idx >= d.batch.Len() {
		if err := d.loadBlock(); err != nil {
			return nil, err
		}
	}
	d.batch.Record(d.idx, &d.rec)
	d.idx++
	return &d.rec, nil
}

// nextBatch returns the next whole block as a RecordBatch, valid until
// the following call.
func (d *columnDecoder) nextBatch() (*RecordBatch, error) {
	if err := d.loadBlock(); err != nil {
		return nil, err
	}
	d.idx = d.batch.Len()
	return &d.batch, nil
}

// decodeColumnBatchAt decodes one indexed METR-3 block straight into
// dst's columns, with no row assembly, so the scan's app filter can run
// before any Record is built and the parallel reader can materialise
// rows into its own arena. raw is the decompression buffer (grown when
// short); the buffer is returned and dst's Blob aliases it.
func (sc *blockScratch) decodeColumnBatchAt(ra io.ReaderAt, b BlockInfo, next int64, dst *RecordBatch, raw []byte) ([]byte, error) {
	h, comp, err := sc.fetch(ra, b, next)
	if err != nil {
		return raw, err
	}
	raw = sliceCap(raw, h.ulen)
	if err := lz.Decompress(raw, comp); err != nil {
		return raw, ErrCorrupt
	}
	sc.u64, err = decodeColumns(raw, h, dst, sc.u64)
	return raw, err
}
