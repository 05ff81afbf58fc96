package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"netenergy/internal/obs"
	"netenergy/internal/trace"
)

// Segment store: with Config.SegmentDir set, every accepted record is
// also appended to a per-device METR-3 segment file, giving the node a
// queryable on-disk history (GET /query, cmd/tsq) alongside the live
// accumulators. Each shard owns one segmentStore confined to its worker
// goroutine — the device→shard mapping is stable, so no two shards ever
// touch the same device's files.
//
// Lifecycle: a device's segment opens lazily on its first accepted
// record, rolls to a new sequence-numbered file when it exceeds
// SegmentMaxBytes, and seals (writes the footer seek index) when the
// device retires or the server drains. In-progress segments have no
// footer yet; sync() cuts any buffered partial block so the query
// engine's streaming fallback can read the live tail.
//
// Persistence is best-effort by design: a write error disables the
// device's segment stream (counted, logged) rather than failing ingest,
// and records a crashed process re-accepts after its last checkpoint
// may appear in both an old and a new segment file. The accumulator
// path stays exactly-once; segments are at-least-once across crashes.

// segmentWriter is one device's open segment file.
type segmentWriter struct {
	f    *os.File
	w    *trace.ColumnWriter
	n    int64           // bytes written so far (roll trigger)
	last trace.Timestamp // newest written timestamp (drop gate)
}

// Write counts bytes through to the file, feeding the roll decision.
func (sw *segmentWriter) Write(p []byte) (int, error) {
	n, err := sw.f.Write(p)
	sw.n += int64(n)
	return n, err
}

// segmentStore is one shard's segment persistence state.
type segmentStore struct {
	dir      string
	maxBytes int64
	counters *counters

	open map[string]*segmentWriter
	seq  map[string]int  // next file sequence per sanitized device name
	bad  map[string]bool // devices whose persistence failed and is disabled
}

func newSegmentStore(dir string, maxBytes int64, seqs map[string]int, c *counters) *segmentStore {
	seq := make(map[string]int, len(seqs))
	for k, v := range seqs {
		seq[k] = v
	}
	return &segmentStore{
		dir:      dir,
		maxBytes: maxBytes,
		counters: c,
		open:     map[string]*segmentWriter{},
		seq:      seq,
		bad:      map[string]bool{},
	}
}

// seedSegmentSeqs scans dir once at startup so a restarted node continues
// each device's file numbering instead of overwriting sealed history.
func seedSegmentSeqs(dir string) (map[string]int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	seqs := map[string]int{}
	for _, ent := range entries {
		name, ok := strings.CutSuffix(ent.Name(), segmentExt)
		if !ok {
			continue
		}
		i := strings.LastIndexByte(name, '-')
		if i < 0 {
			continue
		}
		n, err := strconv.Atoi(name[i+1:])
		if err != nil {
			continue
		}
		if n+1 > seqs[name[:i]] {
			seqs[name[:i]] = n + 1
		}
	}
	return seqs, nil
}

const segmentExt = ".metr3"

// appendBatch persists one accepted columnar batch, appending its
// in-order runs with ColumnWriter.WriteBatch. Records older than the last
// timestamp written to the open segment (a device clock that jumped
// backwards) would violate the container's monotonicity, so they are
// dropped from the segment — and counted — rather than poisoning the
// writer; the live accumulator still sees them. The roll check runs once
// per batch, after its records are written.
func (st *segmentStore) appendBatch(device string, b *trace.RecordBatch) {
	n := b.Len()
	if n == 0 || st.bad[device] {
		return
	}
	sw := st.open[device]
	if sw == nil {
		var err error
		if sw, err = st.openSegment(device, b.TS[0]); err != nil {
			st.disable(device, err)
			return
		}
	}
	// Write maximal in-order runs [lo, i); a regressed record ends its run
	// and is dropped, and i == n flushes the last run.
	lo := 0
	for i := 0; i <= n; i++ {
		if i < n && b.TS[i] >= sw.last {
			sw.last = b.TS[i]
			continue
		}
		if lo < i {
			run := b.Slice(lo, i)
			if err := sw.w.WriteBatch(&run); err != nil {
				st.disable(device, err)
				return
			}
			st.counters.segRecords.Add(int64(i - lo))
		}
		if i < n {
			st.counters.segRecordsDropped.Add(1)
		}
		lo = i + 1
	}
	if st.maxBytes > 0 && sw.n >= st.maxBytes {
		st.seal(device)
	}
}

func (st *segmentStore) openSegment(device string, start trace.Timestamp) (*segmentWriter, error) {
	base := sanitizeSegmentName(device)
	seq := st.seq[base]
	st.seq[base] = seq + 1
	path := filepath.Join(st.dir, fmt.Sprintf("%s-%06d%s", base, seq, segmentExt))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	sw := &segmentWriter{f: f, last: start}
	if sw.w, err = trace.NewColumnWriter(sw, device, start); err != nil {
		f.Close()
		return nil, err
	}
	st.open[device] = sw
	return sw, nil
}

// seal finishes a device's open segment: footer index written, file
// closed. The next accepted record rolls to a new sequence number.
func (st *segmentStore) seal(device string) {
	sw := st.open[device]
	if sw == nil {
		return
	}
	delete(st.open, device)
	err := sw.w.Flush()
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		st.disable(device, err)
		return
	}
	st.counters.segSealed.Add(1)
	st.counters.segBytes.Add(sw.n)
}

// sync makes every open segment's buffered records visible to readers by
// cutting a partial block (no footer — the file stays live; a segment with
// nothing buffered writes nothing). Called on the shard goroutine ahead of
// a query.
func (st *segmentStore) sync() error {
	var first error
	//repolint:ordered per-device Sync calls are independent; error capture keeps the first
	for device, sw := range st.open {
		if err := sw.w.Sync(); err != nil {
			st.disable(device, err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// closeAll seals every open segment (drain path).
func (st *segmentStore) closeAll() {
	//repolint:ordered seal order across devices is irrelevant
	for device := range st.open {
		st.seal(device)
	}
}

// disable turns off persistence for one device after an I/O failure,
// leaving any sealed history readable.
func (st *segmentStore) disable(device string, err error) {
	if sw := st.open[device]; sw != nil {
		sw.f.Close()
		delete(st.open, device)
	}
	st.bad[device] = true
	st.counters.segErrors.Add(1)
	st.counters.events.Logf(obs.LevelError, "segment persistence disabled for %q: %v", device, err)
}

// sanitizeSegmentName maps an arbitrary wire device name to a safe file
// stem: alphanumerics, '.', '_' and '-' pass through (no leading '.'),
// everything else percent-encodes. The encoding is injective, so
// distinct devices never share a stem; absurdly long names fall back to
// a truncated prefix plus a hash of the full name.
func sanitizeSegmentName(device string) string {
	var sb strings.Builder
	for i := 0; i < len(device); i++ {
		c := device[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.' && i > 0:
			sb.WriteByte(c)
		default:
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	s := sb.String()
	if s == "" || len(s) > 128 {
		if len(s) > 40 {
			s = s[:40]
		}
		return fmt.Sprintf("%s+%016x", s, hash64(device))
	}
	return s
}
