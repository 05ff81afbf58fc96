package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// AppTable maps collector app IDs to package names and back. The generator
// fills one per device; the reader rebuilds it from RecAppName records.
type AppTable struct {
	names []string
	ids   map[string]uint32
}

// NewAppTable returns an empty table.
func NewAppTable() *AppTable {
	return &AppTable{ids: make(map[string]uint32)}
}

// Intern returns the ID for name, registering it if new.
func (t *AppTable) Intern(name string) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Register records an explicit (id, name) pair from a RecAppName record.
// Sparse IDs grow the table with empty names in between.
func (t *AppTable) Register(id uint32, name string) {
	for uint32(len(t.names)) <= id {
		t.names = append(t.names, "")
	}
	t.names[id] = name
	t.ids[name] = id
}

// Name returns the package name for id, or "app<id>" if unregistered.
func (t *AppTable) Name(id uint32) string {
	if int(id) < len(t.names) && t.names[id] != "" {
		return t.names[id]
	}
	return fmt.Sprintf("app%d", id)
}

// Len returns the number of registered names.
func (t *AppTable) Len() int { return len(t.names) }

// Names returns all registered names in ID order.
func (t *AppTable) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// DeviceTrace is an in-memory trace for one device: the decoded records
// (with payloads copied so they remain valid) plus the app table. Small
// studies and tests use it directly; the full pipeline streams instead.
type DeviceTrace struct {
	Device  string
	Start   Timestamp
	Apps    *AppTable
	Records []Record

	// pooled is set when Records (and the arena its payloads alias) were
	// drawn from the parallel reader's buffer pool; Recycle returns them.
	pooled *decodeArena
}

// Recycle returns the trace's decode buffers to the internal pool so the
// next parallel read can reuse them without reallocating or re-zeroing.
// After Recycle the trace's Records — including their payloads — are
// invalid; the app table and header fields stay usable. Calling it on a
// trace that owns its records (sequential reads, synthetic traces) is a
// no-op. Pipelines that fold a trace into accumulators and move on, like
// core.OpenParallel, call this to make steady-state decoding
// allocation-free for the two dominant buffers.
func (d *DeviceTrace) Recycle() {
	p := d.pooled
	if p == nil {
		return
	}
	d.pooled = nil
	d.Records = nil
	decodeArenaPool.Put(p)
}

// ReadAll reads an entire METR stream into memory, copying packet payloads.
func ReadAll(r io.Reader) (*DeviceTrace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	dt := &DeviceTrace{Device: tr.Device(), Start: tr.Start(), Apps: NewAppTable()}
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return dt, nil
		}
		if err != nil {
			return nil, err
		}
		cp := *rec
		if rec.Type == RecPacket {
			cp.Payload = append([]byte(nil), rec.Payload...)
		}
		if rec.Type == RecAppName {
			dt.Apps.Register(rec.App, rec.AppName)
		}
		dt.Records = append(dt.Records, cp)
	}
}

// ReadFile reads a METR file from disk.
func ReadFile(path string) (*DeviceTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// RecordWriter is the shared contract of the container writers (Writer,
// BlockWriter): stream records, then Flush exactly once to finish the file.
type RecordWriter interface {
	Write(*Record) error
	Flush() error
	Count() uint64
}

// NewFormatWriter returns a RecordWriter producing the given container.
func NewFormatWriter(w io.Writer, format Format, device string, start Timestamp) (RecordWriter, error) {
	switch format {
	case FormatFlat:
		return NewWriter(w, device, start)
	case FormatDeflate:
		return NewCompressedWriter(w, device, start)
	case FormatBlocked:
		return NewBlockWriter(w, device, start)
	case FormatColumnar:
		return NewColumnWriter(w, device, start)
	default:
		return nil, fmt.Errorf("trace: unknown format %v", format)
	}
}

// Serialize writes the whole DeviceTrace as a METR stream.
func (dt *DeviceTrace) Serialize(w io.Writer) error {
	return dt.SerializeFormat(w, FormatFlat)
}

// SerializeFormat writes the trace in the given container format.
func (dt *DeviceTrace) SerializeFormat(w io.Writer, format Format) error {
	tw, err := NewFormatWriter(w, format, dt.Device, dt.Start)
	if err != nil {
		return err
	}
	return dt.writeRecords(tw)
}

func (dt *DeviceTrace) writeRecords(tw RecordWriter) error {
	for i := range dt.Records {
		if err := tw.Write(&dt.Records[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// DetectFileFormat sniffs the container format of a trace file from its
// magic bytes without decoding it.
func DetectFileFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var m [6]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return 0, mapReadErr(err, ErrBadMagic, "reading magic")
	}
	switch string(m[:]) {
	case string(magic):
		return FormatFlat, nil
	case string(magicFlat):
		return FormatDeflate, nil
	case string(magicBlocked):
		return FormatBlocked, nil
	case string(magicColumnar):
		return FormatColumnar, nil
	default:
		return 0, ErrBadMagic
	}
}

// Encode serialises the trace to a byte slice.
func (dt *DeviceTrace) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := dt.Serialize(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SortByTime stably sorts records by timestamp. Generators emitting from
// several app models call this before writing.
func (dt *DeviceTrace) SortByTime() {
	sort.SliceStable(dt.Records, func(i, j int) bool {
		return dt.Records[i].TS < dt.Records[j].TS
	})
}

// Packets returns the indices of packet records, in order.
func (dt *DeviceTrace) Packets() []int {
	var out []int
	for i := range dt.Records {
		if dt.Records[i].Type == RecPacket {
			out = append(out, i)
		}
	}
	return out
}

// jsonRecord is the NDJSON export shape.
type jsonRecord struct {
	Type   string  `json:"type"`
	TS     int64   `json:"ts_us"`
	App    string  `json:"app,omitempty"`
	Dir    string  `json:"dir,omitempty"`
	Net    string  `json:"net,omitempty"`
	State  string  `json:"state,omitempty"`
	Bytes  int     `json:"bytes,omitempty"`
	UIKind uint8   `json:"ui_kind,omitempty"`
	On     *bool   `json:"screen_on,omitempty"`
	Sec    float64 `json:"t_rel_s"`
}

// ExportNDJSON writes one JSON object per record, for inspection with
// standard text tooling. Packet payload bytes are summarised by length.
func (dt *DeviceTrace) ExportNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range dt.Records {
		r := &dt.Records[i]
		jr := jsonRecord{Type: r.Type.String(), TS: int64(r.TS), Sec: r.TS.Sub(dt.Start)}
		switch r.Type {
		case RecPacket:
			jr.App = dt.Apps.Name(r.App)
			jr.Dir = r.Dir.String()
			jr.Net = r.Net.String()
			jr.State = r.State.String()
			jr.Bytes = len(r.Payload)
		case RecProcState:
			jr.App = dt.Apps.Name(r.App)
			jr.State = r.State.String()
		case RecUIEvent:
			jr.App = dt.Apps.Name(r.App)
			jr.UIKind = uint8(r.UIKind)
		case RecScreen:
			on := r.ScreenOn
			jr.On = &on
		case RecAppName:
			jr.App = r.AppName
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return nil
}

// Fleet is a set of device trace files comprising one study dataset.
type Fleet struct {
	Dir   string
	Paths []string // sorted METR file paths
}

// OpenFleet lists the *.metr files in dir.
func OpenFleet(dir string) (*Fleet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.metr"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no .metr files in %s", dir)
	}
	sort.Strings(paths)
	return &Fleet{Dir: dir, Paths: paths}, nil
}

// EachDevice loads each device trace in turn and invokes fn. Traces are
// loaded one at a time so a fleet larger than memory still processes.
func (f *Fleet) EachDevice(fn func(*DeviceTrace) error) error {
	for _, p := range f.Paths {
		dt, err := ReadFile(p)
		if err != nil {
			return fmt.Errorf("trace: reading %s: %w", p, err)
		}
		if err := fn(dt); err != nil {
			return err
		}
	}
	return nil
}

// FilterApp returns a copy of the trace containing only records belonging
// to the given app (screen records, which are device-wide, are kept).
func (dt *DeviceTrace) FilterApp(app uint32) *DeviceTrace {
	out := &DeviceTrace{Device: dt.Device, Start: dt.Start, Apps: dt.Apps}
	for i := range dt.Records {
		r := dt.Records[i]
		switch r.Type {
		case RecScreen:
			out.Records = append(out.Records, r)
		case RecAppName:
			if r.App == app {
				out.Records = append(out.Records, r)
			}
		default:
			if r.App == app {
				out.Records = append(out.Records, r)
			}
		}
	}
	return out
}

// Window returns a copy of the trace restricted to records with
// from <= TS < to. App-name registrations are always kept so the table
// survives.
func (dt *DeviceTrace) Window(from, to Timestamp) *DeviceTrace {
	out := &DeviceTrace{Device: dt.Device, Start: from, Apps: dt.Apps}
	for i := range dt.Records {
		r := dt.Records[i]
		if r.Type == RecAppName || (r.TS >= from && r.TS < to) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}
