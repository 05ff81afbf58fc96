package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// stream is one device stream the benchmark sends: records in timestamp
// order, replayed under a fresh device ID each time it is sent.
type stream struct {
	name  string
	start trace.Timestamp
	recs  []trace.Record
}

// genConfig is the synthgen configuration for a workload seed. The
// workload seed picks the fleet; everything downstream derives from it.
func genConfig(seed uint64, users, days int) synthgen.Config {
	cfg := synthgen.Small(users, days)
	cfg.Seed = seed
	return cfg
}

// fixedDevices generates devices for seed, in user order, until n of
// them hold at least records records over days days, and returns those n
// truncated to exactly records records: a fleet whose size, and so whose
// cost, is the same for every seed while its contents follow the seed.
// Users are generated workers at a time; each is an independent stream of
// the seed, so the result does not depend on workers.
func fixedDevices(seed uint64, n, days, records, workers int) ([]*trace.DeviceTrace, error) {
	cfg := genConfig(seed, n, days)
	var out []*trace.DeviceTrace
	for base := 0; len(out) < n; base += workers {
		if base >= 64*n {
			return nil, fmt.Errorf("seed %d: fewer than %d of %d users have %d records in %d days", seed, n, base, records, days)
		}
		batch := make([]*trace.DeviceTrace, workers)
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				batch[i] = synthgen.GenerateDevice(cfg, base+i)
			}(i)
		}
		wg.Wait()
		for _, dt := range batch {
			if len(out) < n && len(dt.Records) >= records {
				// A copy, so the records cut off are not kept alive and
				// memory use does not follow how active a seed's devices are.
				dt.Records = append([]trace.Record(nil), dt.Records[:records]...)
				out = append(out, dt)
			}
		}
	}
	return out, nil
}

// fixedStreams cuts each generated device trace into consecutive streams
// of exactly n records (the remainder is dropped), so every stream costs
// the same whatever the seed: latency then compares across seeds instead
// of following one device's activity level.
func fixedStreams(dts []*trace.DeviceTrace, n int) []stream {
	var out []stream
	for _, dt := range dts {
		for lo := 0; lo+n <= len(dt.Records); lo += n {
			recs := dt.Records[lo : lo+n]
			out = append(out, stream{
				name:  fmt.Sprintf("%s.%d", dt.Device, lo/n),
				start: recs[0].TS,
				recs:  recs,
			})
		}
	}
	return out
}

// inputDigest hashes streams through the wire encoding, so two runs can
// prove they fed the system identical bytes.
func inputDigest(ss []stream) string {
	h := sha256.New()
	var hdr [8]byte
	for _, s := range ss {
		h.Write([]byte(s.name))
		binary.LittleEndian.PutUint64(hdr[:], uint64(s.start))
		h.Write(hdr[:])
		enc := trace.NewRecordEncoder(s.start)
		for i := range s.recs {
			body, err := enc.Encode(&s.recs[i])
			if err != nil {
				// An unencodable record still has to change the digest.
				h.Write([]byte(err.Error()))
				continue
			}
			binary.LittleEndian.PutUint64(hdr[:], uint64(len(body)))
			h.Write(hdr[:])
			h.Write(body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceStreams wraps whole device traces as streams.
func traceStreams(dts []*trace.DeviceTrace) []stream {
	out := make([]stream, len(dts))
	for i, dt := range dts {
		out[i] = stream{name: dt.Device, start: dt.Start, recs: dt.Records}
	}
	return out
}
