// Command gentrace synthesises a study dataset: one METR trace file per
// simulated device, standing in for the paper's proprietary 20-user,
// 623-day capture.
//
// Usage:
//
//	gentrace -out data/ [-users 20] [-days 126] [-seed 20151028] [-ndjson]
//	gentrace -dump-profiles           # write the built-in app profiles as JSON
//	gentrace -out data/ -profiles custom.json
//
// With -ndjson, an .ndjson sidecar is written next to each trace for
// inspection with standard text tools. With -profiles, the app population
// is loaded from a JSON file (see -dump-profiles for the schema) instead
// of the built-in calibrated profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"netenergy/internal/appmodel"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", "data", "output directory for .metr trace files")
		users    = flag.Int("users", 20, "number of simulated users/devices")
		days     = flag.Int("days", 126, "study length in days")
		seed     = flag.Uint64("seed", 20151028, "master random seed")
		ndjson   = flag.Bool("ndjson", false, "also write .ndjson sidecars")
		profiles = flag.String("profiles", "", "JSON file defining the app population (default: built-ins)")
		format   = flag.String("format", "", "container format: flat, deflate, metr2 or metr3 (default flat)")
		dump     = flag.Bool("dump-profiles", false, "print the built-in case-study profiles as JSON and exit")
	)
	flag.Parse()

	if *dump {
		if err := appmodel.SaveProfiles(os.Stdout, appmodel.CaseStudies()); err != nil {
			fmt.Fprintln(os.Stderr, "gentrace:", err)
			os.Exit(1)
		}
		return
	}

	cfg := synthgen.Default()
	cfg.Users = *users
	cfg.Days = *days
	cfg.Seed = *seed
	if *format != "" {
		f, err := trace.ParseFormat(*format)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gentrace:", err)
			os.Exit(2)
		}
		cfg.Format = f
	}
	if *profiles != "" {
		f, err := os.Open(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gentrace:", err)
			os.Exit(1)
		}
		ps, err := appmodel.LoadProfiles(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gentrace:", err)
			os.Exit(1)
		}
		cfg.Profiles = ps
		fmt.Fprintf(os.Stderr, "loaded %d profiles from %s\n", len(ps), *profiles)
	}

	fmt.Fprintf(os.Stderr, "generating %d users x %d days into %s (seed %d)\n",
		cfg.Users, cfg.Days, *out, cfg.Seed)
	fleet, err := synthgen.GenerateFleet(cfg, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentrace:", err)
		os.Exit(1)
	}
	var total int64
	for _, p := range fleet.Paths {
		st, err := os.Stat(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gentrace:", err)
			os.Exit(1)
		}
		total += st.Size()
		fmt.Printf("%s  %.1f MB\n", p, float64(st.Size())/1e6)
	}
	fmt.Printf("total: %d devices, %.1f MB\n", len(fleet.Paths), float64(total)/1e6)

	if *ndjson {
		err := fleet.EachDevice(func(dt *trace.DeviceTrace) error {
			path := filepath.Join(*out, strings.TrimSuffix(dt.Device, ".metr")+".ndjson")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return dt.ExportNDJSON(f)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gentrace: ndjson:", err)
			os.Exit(1)
		}
	}
}
