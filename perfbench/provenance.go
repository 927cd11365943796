package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance stamps a result with what produced it: the commit and dirty
// flag Go recorded at build time (absent when the tree was built outside a
// git checkout), a digest of the Go sources the run was built from, the
// toolchain, GOMAXPROCS, the collector target, the CPU model, the seed and
// the live clock scale (0 for the discrete-event workloads, whose clock is
// virtual).
func provenance(workload string, seed, clockScale int64, trace int) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	gcPercent := debug.SetGCPercent(-1)
	debug.SetGCPercent(gcPercent)
	return map[string]any{
		"workload":    workload,
		"trace":       trace,
		"commit":      commit,
		"dirty":       dirty,
		"source_hash": sourceHash(),
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"gogc":        gcPercent,
		"cpu_model":   cpuModel(),
		"seed":        seed,
		"clock_scale": clockScale,
	}
}

// sourceHash digests every .go file and go.mod under the repository root
// (hidden directories skipped), in walk order, so two runs built from the
// same sources carry the same hash with or without git. The root is found
// from the working directory: the benchmark runs from the repository root
// or, in its own tests, from perfbench/.
func sourceHash() string {
	root := "."
	if _, err := os.Stat("perfbench"); err != nil {
		root = ".."
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
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
