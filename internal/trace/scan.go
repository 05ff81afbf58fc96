package trace

import (
	"bufio"
	"io"
	"os"
	"sort"
)

// Range-pushdown scan over a single trace file: the footer index's
// per-block firstTS/lastTS (honest min/max — the writers reject
// out-of-order records) prune blocks wholly outside a half-open time
// window [From, To) before any byte of the block is read or inflated.
// Within a surviving block, records are trimmed to the window by binary
// search on the (sorted) timestamp column, and an optional app predicate
// is applied column-at-a-time before any row assembly. Files without an
// intact footer — flat v1 containers and blocked files still being
// written (the ingest segment store's live tail) — fall back to a
// streaming scan with the same record-level semantics, just without
// block skips.

// TimeRange is a half-open query window [From, To) in trace timestamps.
type TimeRange struct {
	From Timestamp // inclusive
	To   Timestamp // exclusive
}

// Contains reports whether ts falls inside the window: From <= ts < To.
// A record exactly at To is out; a record exactly at From is in.
func (t TimeRange) Contains(ts Timestamp) bool {
	return ts >= t.From && ts < t.To
}

// overlapsBlock reports whether a block spanning [first, last]
// (inclusive on both ends — these are record timestamps, not bounds)
// can hold an in-window record. A block whose last == From must still
// be scanned (that record is in the window); a block whose first == To
// is skipped (every record is at or past the exclusive bound).
func (t TimeRange) overlapsBlock(first, last Timestamp) bool {
	return first < t.To && last >= t.From
}

// ScanStats counts pushdown effectiveness across one or more scans.
// BlocksSkipped is the proof the seek index worked: blocks never read,
// decompressed or decoded because their advertised range missed the
// window.
type ScanStats struct {
	Files          int   // files opened
	BlocksTotal    int   // index entries examined (indexed files only)
	BlocksSkipped  int   // blocks pruned by the [From, To) overlap test
	BlocksScanned  int   // blocks decoded
	RecordsScanned int64 // records decoded before trimming/filtering
	RecordsMatched int64 // records delivered to the callback
}

// Add accumulates o into s (for merging per-file or per-node stats).
func (s *ScanStats) Add(o ScanStats) {
	s.Files += o.Files
	s.BlocksTotal += o.BlocksTotal
	s.BlocksSkipped += o.BlocksSkipped
	s.BlocksScanned += o.BlocksScanned
	s.RecordsScanned += o.RecordsScanned
	s.RecordsMatched += o.RecordsMatched
}

// ScanOptions selects the records a scan delivers.
type ScanOptions struct {
	// Range is the half-open window; records with Range.Contains(TS)
	// pass.
	Range TimeRange

	// Apps, when non-empty, keeps only records attributable to these app
	// IDs. RecScreen records are device-global (no app column meaning)
	// and always pass, as do RecAppName registrations for selected apps
	// — the name table is how query results get labelled.
	Apps []uint32
}

// appFilter is the materialised app predicate; nil means "all apps".
type appFilter map[uint32]struct{}

func newAppFilter(apps []uint32) appFilter {
	if len(apps) == 0 {
		return nil
	}
	f := make(appFilter, len(apps))
	for _, a := range apps {
		f[a] = struct{}{}
	}
	return f
}

// keep reports whether record i of b passes the predicate. The check is
// purely columnar: type and app columns only.
func (f appFilter) keep(b *RecordBatch, i int) bool {
	if f == nil {
		return true
	}
	if b.Types[i] == RecScreen {
		return true
	}
	_, ok := f[b.App[i]]
	return ok
}

// ScanFile scans one trace file, delivering the in-window (and
// app-matching) records to fn as read-only batches valid only for the
// duration of the call. It returns the device name from the file
// header. stats may be nil.
func ScanFile(path string, opt ScanOptions, stats *ScanStats, fn func(*RecordBatch) error) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	if stats != nil {
		stats.Files++
	}
	ix, ok, err := readBlockIndexFmt(f, st.Size())
	if err != nil {
		return "", err
	}
	if !ok {
		return scanStream(f, opt, stats, fn)
	}
	return ix.device, scanIndexed(f, &ix, opt, stats, fn)
}

// scanStream is the no-index fallback: decode front to back, trim and
// filter each batch. Flat v1 files and unsealed (in-progress) segments
// land here — nothing can be skipped without an index, but the record
// semantics are identical.
func scanStream(f *os.File, opt ScanOptions, stats *ScanStats, fn func(*RecordBatch) error) (string, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	br, err := NewBatchReader(bufio.NewReaderSize(f, 256<<10))
	if err != nil {
		return "", err
	}
	filter := newAppFilter(opt.Apps)
	var scratch RecordBatch
	for {
		b, err := br.Next()
		if err == io.EOF {
			return br.Device(), nil
		}
		if err != nil {
			return br.Device(), err
		}
		if err := emitTrimmed(b, opt.Range, filter, &scratch, stats, fn); err != nil {
			return br.Device(), err
		}
	}
}

// scanIndexed prunes blocks via the footer index and decodes only the
// survivors.
func scanIndexed(f *os.File, ix *blockIndex, opt ScanOptions, stats *ScanStats, fn func(*RecordBatch) error) error {
	filter := newAppFilter(opt.Apps)
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	var scratch, out RecordBatch
	var raw []byte
	var recs []Record
	for i, b := range ix.blocks {
		if stats != nil {
			stats.BlocksTotal++
		}
		if !opt.Range.overlapsBlock(b.First, b.Last) {
			if stats != nil {
				stats.BlocksSkipped++
			}
			continue
		}
		if stats != nil {
			stats.BlocksScanned++
		}
		next := ix.spanEnd(i)
		scratch.Reset()
		if ix.format == FormatColumnar {
			var err error
			raw, err = sc.decodeColumnBatchAt(f, b, next, &scratch, raw)
			if err != nil {
				return err
			}
		} else {
			recs = sliceCap(recs, b.Count)
			if err := sc.decodeBlockAt(f, b, next, recs); err != nil {
				return err
			}
			for j := range recs {
				scratch.Append(&recs[j])
			}
		}
		if err := emitTrimmed(&scratch, opt.Range, filter, &out, stats, fn); err != nil {
			return err
		}
	}
	return nil
}

// emitTrimmed trims b to the window by binary search on the sorted
// timestamp column, applies the app filter columnar-ly (compacting into
// out only when the filter drops rows — the unfiltered in-window run is
// delivered as a zero-copy view), and hands the result to fn.
func emitTrimmed(b *RecordBatch, r TimeRange, filter appFilter, out *RecordBatch, stats *ScanStats, fn func(*RecordBatch) error) error {
	n := b.Len()
	if stats != nil {
		stats.RecordsScanned += int64(n)
	}
	if n == 0 {
		return nil
	}
	// Timestamps within a batch are non-decreasing (writer-enforced), so
	// the in-window run is contiguous: [lo, hi).
	lo := sort.Search(n, func(i int) bool { return b.TS[i] >= r.From })
	hi := sort.Search(n, func(i int) bool { return b.TS[i] >= r.To })
	if lo >= hi {
		return nil
	}
	if filter == nil {
		view := b.Slice(lo, hi)
		if stats != nil {
			stats.RecordsMatched += int64(view.Len())
		}
		return fn(&view)
	}
	out.Reset()
	for i := lo; i < hi; i++ {
		if filter.keep(b, i) {
			out.AppendFrom(b, i)
		}
	}
	if out.Len() == 0 {
		return nil
	}
	if stats != nil {
		stats.RecordsMatched += int64(out.Len())
	}
	return fn(out)
}
