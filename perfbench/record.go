package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runRecord is what one run says about itself beyond the result line:
// where it ran, on which code and inputs, and how spread its samples were.
// It is printed before the result line and kept under the work directory.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Machine     machine                `json:"machine"`
	InputDigest string                 `json:"input_digest"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	FailRatio   float64                `json:"fail_ratio"`
	Samples     map[string]summary     `json:"samples,omitempty"`
	Tail        *tailRecord            `json:"op_tail,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Notes       map[string]any         `json:"notes,omitempty"`
}

// tailRecord states which percentile op_tail_ms used and on how many
// samples: per window of WindowOps operations when Windows is set, else
// over all N.
type tailRecord struct {
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"samples_beyond"`
	N          int     `json:"n"`
	Windows    int     `json:"windows"`
	WindowOps  int     `json:"window_ops,omitempty"`
}

type machine struct {
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machineIdentity() machine {
	return machine{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit: from the build's VCS stamp, else
// from .git at the working directory, else "unknown" (an exported tree;
// source_sha256 still identifies the code).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (build
// output and VCS metadata excluded), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// write prints the record as one JSON line (ahead of the result line) and
// stores it under dir.
func (r *runRecord) write(dir string) error {
	b, err := json.Marshal(map[string]*runRecord{"run_record": r})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, mode)), append(b, '\n'), 0o644)
}
