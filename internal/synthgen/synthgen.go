// Package synthgen generates the study dataset: a fleet of device traces
// that stand in for the paper's proprietary 20-user, 623-day capture.
//
// Every device trace contains the same record streams the paper's collector
// produced — serialised packets with packet→process mappings, process-state
// transitions, UI events and screen events — produced by the app behaviour
// models (internal/appmodel) driven by per-user schedules
// (internal/usermodel). All randomness derives from a single seed, so a
// dataset is reproducible bit-for-bit.
//
// The default configuration uses 20 users and 126 days rather than the
// paper's 623 days, purely to bound dataset size; all rates (updates/day,
// flows/day, sessions/day) match the paper's reported values, so per-day
// statistics are directly comparable (documented in DESIGN.md).
package synthgen

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"netenergy/internal/appmodel"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
	"netenergy/internal/usermodel"
)

// Config controls dataset synthesis.
type Config struct {
	Seed  uint64
	Users int
	Days  int
	Start trace.Timestamp
	// Profiles is the app population; nil means appmodel.AllProfiles().
	Profiles []appmodel.Profile
	// ActivityScale is forwarded to the user model (1.0 = calibrated
	// default activity level).
	ActivityScale float64
	// NightlyWiFiProb is the chance a given night (23:00-06:30) is spent
	// on home WiFi; that traffic is recorded but not billed as cellular.
	NightlyWiFiProb float64
	// Snaplen is the capture snap length (0: appmodel.DefaultSnaplen).
	Snaplen int
	// RetransmitProb is the per-segment TCP retransmission probability.
	RetransmitProb float64
	// EmitDNS enables DNS query/response traffic before uncached
	// connections (on by default in Default()).
	EmitDNS bool
	// Format selects the on-disk container (flat, deflate, METR-2 or
	// METR-3); the zero value is flat. Readers auto-detect every form.
	Format trace.Format
	// VacationProb is the chance a user takes one trip during the study
	// with the device off (or out of coverage) for 2-7 days: a span of
	// total radio silence, the strongest form of the §5 idle periods.
	VacationProb float64
}

// studyStart is 2012-12-01 UTC, the month the paper's collection began.
const studyStart = trace.Timestamp(1354320000 * 1_000_000)

// Default returns the full-study configuration: 20 users, 126 days.
func Default() Config {
	return Config{
		Seed: 20151028, Users: 20, Days: 126, Start: studyStart,
		ActivityScale: 1, NightlyWiFiProb: 0.25, RetransmitProb: 0.01,
		EmitDNS: true, VacationProb: 0.35,
	}
}

// Small returns a reduced configuration for tests and quick examples.
func Small(users, days int) Config {
	c := Default()
	c.Users = users
	c.Days = days
	return c
}

// End returns the end timestamp of the configured span.
func (c Config) End() trace.Timestamp {
	return c.Start.AddSeconds(float64(c.Days) * 86400)
}

func (c Config) profiles() []appmodel.Profile {
	if c.Profiles != nil {
		return c.Profiles
	}
	return appmodel.AllProfiles()
}

// DeviceID formats the canonical device name for user index i.
func DeviceID(i int) string { return fmt.Sprintf("u%02d", i) }

// GenerateDevice synthesises the full trace for one user index. App IDs are
// interned in profile order on every device, so IDs are comparable across
// the fleet.
func GenerateDevice(cfg Config, userIdx int) *trace.DeviceTrace {
	profiles := cfg.profiles()
	// Independent, stable per-user stream.
	src := rng.New(cfg.Seed ^ (uint64(userIdx)+1)*0x9e3779b97f4a7c15)

	dt := &trace.DeviceTrace{Device: DeviceID(userIdx), Start: cfg.Start, Apps: trace.NewAppTable()}
	for i := range profiles {
		id := dt.Apps.Intern(profiles[i].Package)
		dt.Records = append(dt.Records, trace.Record{
			Type: trace.RecAppName, TS: cfg.Start, App: id, AppName: profiles[i].Package,
		})
	}

	ucfg := usermodel.Config{Start: cfg.Start, Days: cfg.Days, ActivityScale: cfg.ActivityScale}
	if ucfg.ActivityScale == 0 {
		ucfg.ActivityScale = 1
	}
	user := usermodel.Build(dt.Device, src.Split(), profiles, ucfg)

	g := appmodel.NewGen(dt, src.Split())
	if cfg.Snaplen > 0 {
		g.Snaplen = cfg.Snaplen
	}
	g.WiFiPeriods = nightlyWiFi(src.Split(), cfg)
	g.ActivePeriods = user.AllSessions()
	g.RetransmitProb = cfg.RetransmitProb
	g.EmitDNS = cfg.EmitDNS

	end := cfg.End()
	for _, pi := range user.Installed {
		p := &profiles[pi]
		appID := dt.Apps.Intern(p.Package)
		p.Behavior.Generate(g, appID, user.Sessions[pi], cfg.Start, end)
	}

	// Screen events around the user's merged usage timeline.
	for _, s := range user.AllSessions() {
		g.Screen(s.Start, true)
		g.Screen(s.End.AddSeconds(5), false)
	}

	// Vacation: the device is off for a multi-day span — drop every record
	// inside it (no packets, no state changes, no screen events).
	if cfg.VacationProb > 0 {
		vsrc := rng.New(cfg.Seed ^ 0xabcdef ^ uint64(userIdx)*7919)
		if vsrc.Bool(cfg.VacationProb) && cfg.Days > 10 {
			startDay := 3 + vsrc.Intn(cfg.Days-10)
			length := 2 + vsrc.Intn(6)
			vStart := cfg.Start.AddSeconds(float64(startDay) * 86400)
			vEnd := vStart.AddSeconds(float64(length) * 86400)
			kept := dt.Records[:0]
			for i := range dt.Records {
				r := dt.Records[i]
				if r.TS >= vStart && r.TS < vEnd && r.Type != trace.RecAppName {
					continue
				}
				kept = append(kept, r)
			}
			dt.Records = kept
		}
	}

	dt.SortByTime()
	return dt
}

// nightlyWiFi builds the sorted WiFi spans: each night 23:00-06:30 is on
// WiFi with the configured probability.
func nightlyWiFi(src *rng.Source, cfg Config) []appmodel.Session {
	var out []appmodel.Session
	for d := 0; d < cfg.Days; d++ {
		if !src.Bool(cfg.NightlyWiFiProb) {
			continue
		}
		start := cfg.Start.AddSeconds(float64(d)*86400 + 23*3600)
		out = append(out, appmodel.Session{Start: start, End: start.AddSeconds(7.5 * 3600)})
	}
	return out
}

// GenerateFleet writes one METR file per user into dir and returns the
// opened fleet. Existing files are overwritten. Devices are generated in
// parallel (each user's randomness is an independent stream, so the output
// is identical to sequential generation).
func GenerateFleet(cfg Config, dir string) (*trace.Fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	errs := make([]error, cfg.Users)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i := 0; i < cfg.Users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			dt := GenerateDevice(cfg, i)
			path := filepath.Join(dir, dt.Device+".metr")
			f, err := os.Create(path)
			if err != nil {
				errs[i] = err
				return
			}
			if err := dt.SerializeFormat(f, cfg.Format); err != nil {
				f.Close()
				errs[i] = fmt.Errorf("synthgen: writing %s: %w", path, err)
				return
			}
			errs[i] = f.Close()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trace.OpenFleet(dir)
}

// GenerateInMemory returns all device traces without touching disk — used
// by tests, benches and the examples. Devices generate in parallel; the
// result is deterministic because every user has an independent seed.
func GenerateInMemory(cfg Config) []*trace.DeviceTrace {
	out := make([]*trace.DeviceTrace, cfg.Users)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i := 0; i < cfg.Users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = GenerateDevice(cfg, i)
		}(i)
	}
	wg.Wait()
	return out
}

// maxParallel bounds generation concurrency: device synthesis is memory
// hungry (one full device trace in flight per worker).
func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n > 6 {
		n = 6
	}
	if n < 1 {
		n = 1
	}
	return n
}
