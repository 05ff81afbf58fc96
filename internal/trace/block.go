package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// The METR-2 blocked container:
//
//	file     := "METR2\n" header block* index footer
//	header   := deviceLen:uvarint device:bytes start:varint
//	block    := 'B' ulen:uvarint clen:uvarint crc32c:uint32le
//	            firstTS:varint lastTS:varint count:uvarint payload:clen-bytes
//	payload  := DEFLATE(record*)
//	record   := type:byte len:uvarint body:bytes       (body as in v1)
//	index    := 'I' count:uvarint entry*
//	entry    := offsetDelta:uvarint ulen:uvarint clen:uvarint
//	            firstTS:varint lastTS:varint count:uvarint
//	footer   := indexLen:uint64le indexCRC32C:uint32le "2RTEM\n"
//
// Records are grouped into blocks of ~256 KiB uncompressed; each block is
// DEFLATE-compressed independently, CRC32C-protected (Castagnoli, over the
// compressed payload, so corruption is caught before inflating), and
// carries its own first/last timestamp and record count. The timestamp
// delta chain restarts at firstTS in every block, so blocks decode
// independently of one another — the property the parallel reader exploits.
//
// The index repeats every block header plus its file offset
// (delta-encoded), and the fixed-size footer names the index so a reader
// holding an io.ReaderAt can seek straight to it. Streaming readers ignore
// the index: blocks are self-describing, so NewReader decodes a METR-2
// file front to back without seeking. Per-record CRCs are dropped — the
// block CRC already covers every byte — which is what makes the in-block
// record framing cheaper than v1's.

var (
	magicBlocked = []byte("METR2\n")
	footerMagic  = []byte("2RTEM\n")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// targetBlockSize is the uncompressed payload size at which the writer
	// cuts a block. 256 KiB keeps per-block DEFLATE dictionaries effective
	// while leaving hundreds of blocks per device-file for the parallel
	// reader to spread over workers (Guner & Kosar: transfer granularity is
	// the dominant throughput/energy lever; this is the on-disk analogue).
	targetBlockSize = 256 << 10

	// maxBlockLen is a sanity cap on both sides of a block, bounding
	// allocation when reading crafted or corrupt headers.
	maxBlockLen = 1 << 24

	// footerLen is the fixed trailer: index length, index CRC32C, magic.
	footerLen = 8 + 4 + 6

	blockTag = 'B'
	indexTag = 'I'
)

// BlockInfo describes one block of a METR-2 file, as recorded in the
// footer index.
type BlockInfo struct {
	Offset    int64 // file offset of the block tag byte
	CompLen   int   // compressed payload bytes
	UncompLen int   // uncompressed payload bytes
	First     Timestamp
	Last      Timestamp
	Count     int // records in the block
}

// BlockWriter streams records into a METR-2 blocked container. It
// satisfies the same Write/Flush/Count contract as Writer; Flush must be
// the final call (it writes the last partial block, the index and the
// footer).
type BlockWriter struct {
	w     io.Writer
	off   int64
	fw    *flate.Writer
	comp  bytes.Buffer
	raw   []byte // uncompressed record frames of the current block
	hdr   []byte
	first Timestamp
	last  Timestamp
	prev  Timestamp // last timestamp accepted across the whole file
	n     int
	count uint64
	index []BlockInfo
	err   error
}

// NewBlockWriter writes the METR-2 file header and returns a BlockWriter.
func NewBlockWriter(w io.Writer, device string, start Timestamp) (*BlockWriter, error) {
	if err := checkDeviceName(device); err != nil {
		return nil, err
	}
	hdr := append([]byte(nil), magicBlocked...)
	hdr = appendFileHeader(hdr, device, start)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	return &BlockWriter{w: w, off: int64(len(hdr)), fw: fw,
		raw: make([]byte, 0, targetBlockSize+4096)}, nil
}

// Count returns the number of records written so far.
func (w *BlockWriter) Count() uint64 { return w.count }

// Write encodes one record into the current block, cutting a block when
// the uncompressed target size is reached. It returns the first error
// encountered and is a no-op afterwards.
func (w *BlockWriter) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	// Monotonicity gate: block headers record positional first/last
	// timestamps, and range pushdown treats them as min/max when pruning
	// blocks. A record older than its predecessor would fall outside its
	// block's advertised range and silently vanish from windowed scans, so
	// reject it here (equal timestamps are fine). w.last cannot serve as
	// the reference: it doubles as the delta-encoding base and resets at
	// each block start.
	if w.count > 0 && r.TS < w.prev {
		w.err = fmt.Errorf("trace: record %d (ts=%d) precedes ts=%d: %w",
			w.count, r.TS, w.prev, ErrOutOfOrder)
		return w.err
	}
	if w.n == 0 {
		w.first = r.TS
		w.last = r.TS
	}
	raw, err := w.appendFrame(w.raw, r)
	if err != nil {
		w.err = err
		return err
	}
	w.raw = raw
	w.last = r.TS
	w.prev = r.TS
	w.n++
	w.count++
	if len(w.raw) >= targetBlockSize {
		if err := w.cutBlock(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// appendFrame appends one in-block record frame (type, len, body) to b.
func (w *BlockWriter) appendFrame(b []byte, r *Record) ([]byte, error) {
	body, err := appendBody(w.hdr[:0], r, w.last)
	if err != nil {
		return b, err
	}
	w.hdr = body // keep grown capacity
	b = append(b, byte(r.Type))
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...), nil
}

// cutBlock compresses and writes the accumulated records as one block.
func (w *BlockWriter) cutBlock() error {
	if w.n == 0 {
		return nil
	}
	w.comp.Reset()
	w.fw.Reset(&w.comp)
	if _, err := w.fw.Write(w.raw); err != nil {
		return err
	}
	if err := w.fw.Close(); err != nil {
		return err
	}
	payload := w.comp.Bytes()
	crc := crc32.Checksum(payload, castagnoli)

	hdr := append(w.hdr[:0], blockTag)
	hdr = binary.AppendUvarint(hdr, uint64(len(w.raw)))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc)
	hdr = binary.AppendVarint(hdr, int64(w.first))
	hdr = binary.AppendVarint(hdr, int64(w.last))
	hdr = binary.AppendUvarint(hdr, uint64(w.n))
	w.hdr = hdr
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.index = append(w.index, BlockInfo{Offset: w.off, CompLen: len(payload),
		UncompLen: len(w.raw), First: w.first, Last: w.last, Count: w.n})
	w.off += int64(len(hdr) + len(payload))
	w.raw = w.raw[:0]
	w.n = 0
	return nil
}

// Flush writes the final partial block, the footer index and the trailer.
// It must be the last call on the writer.
func (w *BlockWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.cutBlock(); err != nil {
		w.err = err
		return err
	}
	idx := appendBlockIndex(w.hdr[:0], w.index, footerMagic)
	if _, err := w.w.Write(idx); err != nil {
		w.err = err
		return err
	}
	return nil
}

// appendBlockIndex appends the footer index and trailer shared by the
// blocked containers (METR-2 and METR-3); magic selects the trailer
// magic and therefore the format.
func appendBlockIndex(idx []byte, index []BlockInfo, magic []byte) []byte {
	idx = append(idx, indexTag)
	idx = binary.AppendUvarint(idx, uint64(len(index)))
	prev := int64(0)
	for _, b := range index {
		idx = binary.AppendUvarint(idx, uint64(b.Offset-prev))
		prev = b.Offset
		idx = binary.AppendUvarint(idx, uint64(b.UncompLen))
		idx = binary.AppendUvarint(idx, uint64(b.CompLen))
		idx = binary.AppendVarint(idx, int64(b.First))
		idx = binary.AppendVarint(idx, int64(b.Last))
		idx = binary.AppendUvarint(idx, uint64(b.Count))
	}
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	return append(idx, magic...)
}

// blockHeader is a parsed per-block header.
type blockHeader struct {
	ulen, clen int
	crc        uint32
	first      Timestamp
	lastTS     Timestamp
	count      int
}

// maxBlockHeaderLen bounds the encoded post-tag block header: five
// varints and the CRC.
const maxBlockHeaderLen = 5*binary.MaxVarintLen64 + 4

// varintErr classifies a failed varint parse: n == 0 means the bytes ran
// out mid-varint, n < 0 an overlong encoding no writer produces.
func varintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return ErrCorrupt
}

// parseBlockHeader parses a block header from b (starting after the tag
// byte), returning the header and its encoded length. It is the one
// header parser: the indexed readers parse the block's file span, the
// streaming readers a peek of the buffered stream.
func parseBlockHeader(b []byte) (blockHeader, int, error) {
	var h blockHeader
	p := b
	ulen, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return h, 0, varintErr(n1)
	}
	p = p[n1:]
	clen, n2 := binary.Uvarint(p)
	if n2 <= 0 {
		return h, 0, varintErr(n2)
	}
	p = p[n2:]
	if ulen > maxBlockLen || clen > maxBlockLen {
		return h, 0, ErrCorrupt
	}
	if len(p) < 4 {
		return h, 0, ErrTruncated
	}
	crc := binary.LittleEndian.Uint32(p)
	p = p[4:]
	first, n3 := binary.Varint(p)
	if n3 <= 0 {
		return h, 0, varintErr(n3)
	}
	p = p[n3:]
	last, n4 := binary.Varint(p)
	if n4 <= 0 {
		return h, 0, varintErr(n4)
	}
	p = p[n4:]
	count, n5 := binary.Uvarint(p)
	if n5 <= 0 {
		return h, 0, varintErr(n5)
	}
	p = p[n5:]
	// Every record frame is at least 2 bytes, and every uncompressed byte
	// must belong to a declared record (trailing undeclared bytes are
	// rejected after decoding, so a zero-count block cannot smuggle any).
	if count > ulen/2+1 || (count == 0 && ulen != 0) {
		return h, 0, ErrCorrupt
	}
	// The writers enforce non-decreasing timestamps, so a header whose
	// first exceeds its last was never produced by them — reject rather
	// than let an inverted range corrupt pushdown decisions downstream.
	if count > 0 && first > last {
		return h, 0, ErrCorrupt
	}
	h.ulen, h.clen, h.crc = int(ulen), int(clen), crc
	h.first, h.lastTS, h.count = Timestamp(first), Timestamp(last), int(count)
	return h, len(b) - len(p), nil
}

// blockStream is the streaming (non-seeking) block step shared by the
// METR-2 and METR-3 decoders: it reads blocks front to back, stops at
// the index, and hands out each block's header with its CRC-verified
// compressed payload.
type blockStream struct {
	br   *bufio.Reader
	comp []byte
	done bool
}

// next returns the next block's header and verified compressed payload
// (valid until the following call), or io.EOF at the index or at a
// clean end of file.
func (s *blockStream) next() (blockHeader, []byte, error) {
	var h blockHeader
	if s.done {
		return h, nil, io.EOF
	}
	tag, err := s.br.ReadByte()
	if err == io.EOF {
		// Missing index: tolerated on the streaming path — the blocks
		// themselves were all CRC-verified.
		return h, nil, io.EOF
	}
	if err != nil {
		return h, nil, mapReadErr(err, ErrTruncated, "reading block tag")
	}
	if tag == indexTag {
		// The streaming reader does not need the index; drain so the
		// underlying reader is left at EOF like the v1 path.
		s.done = true
		if _, err := io.Copy(io.Discard, s.br); err != nil && ioFailure(err) {
			return h, nil, fmt.Errorf("trace: draining index: %w", err)
		}
		return h, nil, io.EOF
	}
	if tag != blockTag {
		return h, nil, ErrCorrupt
	}
	// Peek the longest possible header and parse it in place. A header
	// cut short is truncation — unless the read behind the peek failed,
	// which is surfaced as the I/O error it is.
	p, perr := s.br.Peek(maxBlockHeaderLen)
	h, n, err := parseBlockHeader(p)
	if err == ErrTruncated {
		return h, nil, mapReadErr(perr, ErrTruncated, "reading block header")
	}
	if err != nil {
		return h, nil, err
	}
	s.br.Discard(n) //nolint:errcheck // n bytes are already buffered
	s.comp = sliceCap(s.comp, h.clen)
	if _, err := io.ReadFull(s.br, s.comp); err != nil {
		return h, nil, mapReadErr(err, ErrTruncated, "reading block payload")
	}
	if crc32.Checksum(s.comp, castagnoli) != h.crc {
		return h, nil, ErrCorrupt
	}
	return h, s.comp, nil
}

// inflater decompresses METR-2 block payloads, reusing one DEFLATE
// reader across blocks via flate.Resetter.
type inflater struct {
	compRd bytes.Reader
	fr     io.ReadCloser
}

// inflate decompresses comp into dst, which must be exactly the block's
// declared uncompressed length.
func (z *inflater) inflate(dst, comp []byte) error {
	z.compRd.Reset(comp)
	if z.fr == nil {
		z.fr = flate.NewReader(&z.compRd)
	} else if err := z.fr.(flate.Resetter).Reset(&z.compRd, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(z.fr, dst); err != nil {
		return mapReadErr(err, ErrCorrupt, "inflating block")
	}
	return nil
}

// blockDecoder is the streaming METR-2 decoder behind Reader.Next: it
// inflates one block at a time into a reused buffer and serves records
// from it, allocation-free per record at steady state.
type blockDecoder struct {
	s       blockStream
	z       inflater
	raw     []byte
	pos     int
	left    int // records remaining in the current block
	last    Timestamp
	blkLast Timestamp
	rec     Record
}

func newBlockDecoder(br *bufio.Reader) *blockDecoder {
	return &blockDecoder{s: blockStream{br: br}}
}

// next returns the next record in file order, loading the next block when
// the current one is exhausted.
func (d *blockDecoder) next() (*Record, error) {
	for d.left == 0 {
		h, comp, err := d.s.next()
		if err != nil {
			return nil, err
		}
		d.raw = sliceCap(d.raw, h.ulen)
		if err := d.z.inflate(d.raw, comp); err != nil {
			return nil, err
		}
		d.pos = 0
		d.left = h.count
		d.last = h.first
		d.blkLast = h.lastTS
	}

	rec, ts, n, err := decodeFrame(d.raw[d.pos:], d.last, &d.rec)
	if err != nil {
		return nil, err
	}
	d.pos += n
	d.last = ts
	d.left--
	// The last record must land exactly on the block's declared end state:
	// a timestamp mismatch or leftover undeclared bytes mean the block was
	// crafted or mis-framed.
	if d.left == 0 && (ts != d.blkLast || d.pos != len(d.raw)) {
		return nil, ErrCorrupt
	}
	return rec, nil
}

// decodeFrame parses one in-block record frame (type, len, body) from b,
// returning the record, its absolute timestamp and the frame length.
func decodeFrame(b []byte, last Timestamp, rec *Record) (*Record, Timestamp, int, error) {
	if len(b) == 0 {
		return nil, 0, 0, ErrTruncated
	}
	typ := RecordType(b[0])
	blen, n := binary.Uvarint(b[1:])
	if n <= 0 || blen > maxRecordLen {
		return nil, 0, 0, ErrCorrupt
	}
	bodyStart := 1 + n
	if uint64(len(b)-bodyStart) < blen {
		return nil, 0, 0, ErrTruncated
	}
	body := b[bodyStart : bodyStart+int(blen)]
	ts, err := decodeBody(typ, body, last, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	return rec, ts, bodyStart + int(blen), nil
}

// ReadBlockIndex reads the footer index of a blocked container (METR-2
// or METR-3) via ra. It returns the device, start timestamp and
// per-block index, or ok=false if the file is not a blocked container
// or carries no (intact) footer — the caller should fall back to
// streaming.
func ReadBlockIndex(ra io.ReaderAt, size int64) (device string, start Timestamp, blocks []BlockInfo, ok bool, err error) {
	ix, ok, err := readBlockIndexFmt(ra, size)
	return ix.device, ix.start, ix.blocks, ok, err
}

// blockIndex is a parsed footer index plus what its reader learned on
// the way: the file header, the sniffed container format (which selects
// the per-block decoder) and the index's own offset.
type blockIndex struct {
	device string
	start  Timestamp
	format Format
	blocks []BlockInfo
	end    int64 // file offset of the index tag: where the last block ends
}

// spanEnd returns the file offset where block i's span ends: each block
// ends where the next begins, the last at the index.
func (ix *blockIndex) spanEnd(i int) int64 {
	if i+1 < len(ix.blocks) {
		return ix.blocks[i+1].Offset
	}
	return ix.end
}

// readBlockIndexFmt is ReadBlockIndex returning the whole blockIndex.
// The footer is read here once per file; callers take block spans from
// the result instead of re-reading it.
func readBlockIndexFmt(ra io.ReaderAt, size int64) (ix blockIndex, ok bool, err error) {
	var m [6]byte
	if size < int64(len(magicBlocked))+footerLen {
		return ix, false, nil
	}
	if _, err := ra.ReadAt(m[:], 0); err != nil {
		return ix, false, fmt.Errorf("trace: reading magic: %w", err)
	}
	var wantFooter []byte
	switch {
	case bytes.Equal(m[:], magicBlocked):
		ix.format, wantFooter = FormatBlocked, footerMagic
	case bytes.Equal(m[:], magicColumnar):
		ix.format, wantFooter = FormatColumnar, footerMagicColumnar
	default:
		return ix, false, nil
	}
	var foot [footerLen]byte
	if _, err := ra.ReadAt(foot[:], size-footerLen); err != nil {
		return ix, false, fmt.Errorf("trace: reading footer: %w", err)
	}
	if !bytes.Equal(foot[12:], wantFooter) {
		return ix, false, nil // truncated or still being written
	}
	idxLen := int64(binary.LittleEndian.Uint64(foot[:8]))
	wantCRC := binary.LittleEndian.Uint32(foot[8:12])
	if idxLen <= 0 || idxLen > size-footerLen || idxLen > maxBlockLen {
		return ix, false, ErrCorrupt
	}
	idx := make([]byte, idxLen)
	if _, err := ra.ReadAt(idx, size-footerLen-idxLen); err != nil {
		return ix, false, fmt.Errorf("trace: reading index: %w", err)
	}
	if crc32.Checksum(idx, castagnoli) != wantCRC {
		return ix, false, fmt.Errorf("trace: index crc mismatch: %w", ErrCorrupt)
	}
	if idx[0] != indexTag {
		return ix, false, ErrCorrupt
	}
	p := idx[1:]
	readU := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	readS := func() (int64, bool) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	// Each index entry is at least 6 bytes (six single-byte varints), so the
	// remaining index bytes bound the entry count — the pre-allocation below
	// can never exceed the index's own size.
	count, okc := readU()
	if !okc || count > uint64(idxLen)/6 {
		return ix, false, ErrCorrupt
	}
	// dataEnd is the first byte past the last block (the index tag). Every
	// field below comes from the (CRC-intact but possibly crafted) index, so
	// offsets must be strictly increasing within [1, dataEnd) and record
	// counts must satisfy the same minimum-2-bytes-per-frame invariant the
	// block headers enforce — otherwise a tiny file could declare arbitrary
	// offsets/counts and drive unbounded allocations downstream.
	dataEnd := size - footerLen - idxLen
	blocks := make([]BlockInfo, 0, count)
	prev := int64(0)
	prevLast := Timestamp(math.MinInt64)
	for i := uint64(0); i < count; i++ {
		od, ok1 := readU()
		ul, ok2 := readU()
		cl, ok3 := readU()
		ft, ok4 := readS()
		lt, ok5 := readS()
		rc, ok6 := readU()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 ||
			ul > maxBlockLen || cl > maxBlockLen || rc > ul/2+1 {
			return ix, false, ErrCorrupt
		}
		// Writers enforce non-decreasing timestamps, so first > last (or a
		// block starting before its predecessor ended) is a crafted index;
		// pushdown pruning relies on these ranges being honest min/max.
		if rc > 0 {
			if ft > lt || Timestamp(ft) < prevLast {
				return ix, false, ErrCorrupt
			}
			prevLast = Timestamp(lt)
		}
		if od == 0 || od >= uint64(dataEnd) || int64(od) > dataEnd-1-prev {
			return ix, false, ErrCorrupt
		}
		prev += int64(od)
		blocks = append(blocks, BlockInfo{Offset: prev, UncompLen: int(ul), CompLen: int(cl),
			First: Timestamp(ft), Last: Timestamp(lt), Count: int(rc)})
	}

	// Header: the first block (or the index, for an empty file) bounds it.
	hdrEnd := dataEnd
	if len(blocks) > 0 {
		hdrEnd = blocks[0].Offset
	}
	hdr := make([]byte, hdrEnd)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return ix, false, fmt.Errorf("trace: reading header: %w", err)
	}
	r, err := newReader(bytes.NewReader(append(hdr, idx...)), 0)
	if err != nil {
		return ix, false, err
	}
	ix.device, ix.start, ix.blocks, ix.end = r.Device(), r.Start(), blocks, dataEnd
	return ix, true, nil
}

// blockScratch is the pooled decode state of the indexed readers: the
// block's file-span buffer, a reusable inflater (METR-2) and the column
// scratch (METR-3). A reader holds one per worker for a whole file, so
// the steady-state decode loop is free of per-block reader/buffer churn.
type blockScratch struct {
	buf []byte
	z   inflater
	u64 []uint64
	// batch receives the METR-3 columns ReadFileParallel materialises
	// rows from. Its Blob aliases the caller's arena, so it is only ever
	// decoded into, never appended to.
	batch RecordBatch
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// fetch reads indexed block b, whose span ends at next, and verifies it
// against the index: span bound, tag, header-vs-index agreement, length
// and CRC32C. It returns the parsed header and the verified compressed
// payload, which aliases sc.buf until the next fetch. Every indexed
// decode, METR-2 or METR-3, row or column, goes through it.
func (sc *blockScratch) fetch(ra io.ReaderAt, b BlockInfo, next int64) (blockHeader, []byte, error) {
	var h blockHeader
	span := next - b.Offset
	if span <= 0 || span > maxBlockLen+64 {
		return h, nil, ErrCorrupt
	}
	sc.buf = sliceCap(sc.buf, int(span))
	if _, err := ra.ReadAt(sc.buf, b.Offset); err != nil {
		return h, nil, fmt.Errorf("trace: reading block at %d: %w", b.Offset, err)
	}
	if sc.buf[0] != blockTag {
		return h, nil, ErrCorrupt
	}
	h, n, err := parseBlockHeader(sc.buf[1:])
	if err != nil {
		return h, nil, err
	}
	if h.clen != b.CompLen || h.ulen != b.UncompLen || h.count != b.Count {
		return h, nil, fmt.Errorf("trace: block header disagrees with index at offset %d: %w", b.Offset, ErrCorrupt)
	}
	if len(sc.buf) < 1+n+h.clen {
		return h, nil, ErrTruncated
	}
	comp := sc.buf[1+n : 1+n+h.clen]
	if crc32.Checksum(comp, castagnoli) != h.crc {
		return h, nil, ErrCorrupt
	}
	return h, comp, nil
}

// decodeBlockAt fully decodes one indexed METR-2 block into dst (len ==
// b.Count). Record payloads alias a freshly inflated buffer owned by the
// results, so they stay valid indefinitely (no per-record copy).
func (sc *blockScratch) decodeBlockAt(ra io.ReaderAt, b BlockInfo, next int64, dst []Record) error {
	h, comp, err := sc.fetch(ra, b, next)
	if err != nil {
		return err
	}
	raw := make([]byte, h.ulen) // retained: record payloads alias it
	if err := sc.z.inflate(raw, comp); err != nil {
		return err
	}
	if len(dst) != h.count {
		return ErrCorrupt
	}
	last := h.first
	pos := 0
	for i := 0; i < h.count; i++ {
		_, ts, n, err := decodeFrame(raw[pos:], last, &dst[i])
		if err != nil {
			return err
		}
		pos += n
		last = ts
	}
	if last != h.lastTS || pos != len(raw) {
		return ErrCorrupt
	}
	return nil
}

// decodeArena holds the two large per-file buffers the parallel METR-3
// reader fills: the record slice and the byte arena the decoded payloads
// alias. Buffers are recycled through decodeArenaPool by
// DeviceTrace.Recycle, which makes a steady-state decode loop (one file
// after another, as core.OpenParallel runs it) allocation-free for the
// dominant buffers. Reuse without re-zeroing is safe because every byte
// of the arena and every record is fully written before the DeviceTrace
// is returned: lz.Decompress fills each block window exactly, and block
// materialisation assigns every record.
type decodeArena struct {
	recs  []Record
	arena []byte
}

var decodeArenaPool = sync.Pool{New: func() any { return new(decodeArena) }}

// ReadFileParallel reads a trace file with up to workers blocks decoded
// concurrently. METR-2 and METR-3 files with an intact footer index take
// one indexed decode at every worker count, so the result — records,
// order and error alike — does not depend on workers; v1 containers and
// blocked files whose footer is missing fall back to the streaming path.
func ReadFileParallel(path string, workers int) (*DeviceTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ix, ok, err := readBlockIndexFmt(f, st.Size())
	if err != nil {
		return nil, err
	}
	if !ok {
		return ReadAll(f)
	}
	blocks := ix.blocks

	// The index gives every block's record count up front, so all blocks
	// decode straight into disjoint windows of one shared arena — workers
	// never allocate result slices and there is no post-decode assembly
	// copy. Record order is identical to sequential reading.
	offs := make([]int, len(blocks)+1)
	for i, b := range blocks {
		offs[i+1] = offs[i] + b.Count
	}

	// The columnar decoder also gets one shared byte arena, sliced into
	// per-block windows sized from the index: each block decompresses
	// straight into its window and the decoded payloads alias it, so one
	// large allocation replaces a buffer per block. Both the arena and
	// the record slice come from decodeArenaPool — every byte is
	// overwritten before the trace is returned, so stale pool contents
	// never escape.
	var recs []Record
	var arena []byte
	var uoffs []int
	var pooled *decodeArena
	if ix.format == FormatColumnar {
		uoffs = make([]int, len(blocks)+1)
		for i, b := range blocks {
			uoffs[i+1] = uoffs[i] + b.UncompLen
		}
		pooled = decodeArenaPool.Get().(*decodeArena)
		pooled.recs = sliceCap(pooled.recs, offs[len(blocks)])
		pooled.arena = sliceCap(pooled.arena, uoffs[len(blocks)])
		recs, arena = pooled.recs, pooled.arena
	} else {
		recs = make([]Record, offs[len(blocks)])
	}
	decodeAt := func(sc *blockScratch, i int) error {
		b, next, dst := blocks[i], ix.spanEnd(i), recs[offs[i]:offs[i+1]]
		if ix.format != FormatColumnar {
			return sc.decodeBlockAt(f, b, next, dst)
		}
		window := arena[uoffs[i]:uoffs[i+1]:uoffs[i+1]]
		if _, err := sc.decodeColumnBatchAt(f, b, next, &sc.batch, window); err != nil {
			return err
		}
		for j := range dst {
			sc.batch.Record(j, &dst[j])
		}
		return nil
	}

	errs := make([]error, len(blocks))
	workers = max(1, min(workers, len(blocks)))
	var nextBlock atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := blockScratchPool.Get().(*blockScratch)
			defer blockScratchPool.Put(sc)
			for {
				i := int(nextBlock.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				errs[i] = decodeAt(sc, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if pooled != nil {
				decodeArenaPool.Put(pooled)
			}
			return nil, err
		}
	}

	dt := &DeviceTrace{Device: ix.device, Start: ix.start, Apps: NewAppTable(), Records: recs, pooled: pooled}
	for i := range recs {
		if recs[i].Type == RecAppName {
			dt.Apps.Register(recs[i].App, recs[i].AppName)
		}
	}
	return dt, nil
}
