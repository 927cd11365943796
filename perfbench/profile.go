package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// procSample is a reading of the process counters a run is charged with.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	mallocs uint64
	numGC   uint32
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:    time.Now(),
		cpu:     processCPU(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procDelta is what the process spent between two readings.
type procDelta struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   float64
	mallocs float64
	gcs     float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		alloc:   float64(b.alloc - a.alloc),
		mallocs: float64(b.mallocs - a.mallocs),
		gcs:     float64(b.numGC - a.numGC),
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuProfile records a CPU profile into memory for layer attribution.
type cpuProfile struct{ buf bytes.Buffer }

// startProfile starts the CPU profile of a traced pass (nil when untraced).
// A profile that cannot start is a failed check of the run.
func startProfile(traced bool, rep *report) *cpuProfile {
	if !traced {
		return nil
	}
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		rep.problem("cpu profile: %v", err)
		return nil
	}
	return p
}

// stop ends the profile and returns each layer's share of the sampled CPU
// time (see layerOf); shares of all layers, "other" included, sum to 1.
func (p *cpuProfile) stop(rep *report) map[string]float64 {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(p.buf.Bytes())
	if err != nil {
		rep.problem("cpu profile: %v", err)
	}
	return shares
}

const repoPrefix = "github.com/argonne-first/first/"

// layerOf names the layer a sampled stack is charged to: the package of the
// innermost frame inside the repository (internal/<pkg> → <pkg>, this
// benchmark → bench), else runtime.gc for GC workers, else other.
// Frames are ordered innermost first.
func layerOf(frames []string) string {
	gc := false
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if pkg, ok := strings.CutPrefix(rest, "internal/"); ok {
				if i := strings.IndexAny(pkg, "./"); i > 0 {
					return pkg[:i]
				}
				return pkg
			}
			return "bench"
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and charges every sample's
// CPU time to layerOf its stack.
func layerShares(gz []byte) (map[string]float64, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	charged := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range prof.locFuncs[loc] {
				frames = append(frames, prof.funcNames[fid])
			}
		}
		charged[layerOf(frames)] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(charged))
	for layer, w := range charged {
		shares[layer] = ratio(w, total)
	}
	return shares, nil
}

// profile is the part of a pprof Profile message layer attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string
}

type profSample struct {
	locs   []uint64 // innermost first
	weight float64
}

// decodeProfile parses the gzipped protobuf pprof writes (the
// perftools.profiles.Profile schema), standard library only.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeNames []uint64 // sample_type[i].type string index
		rawSamps  [][]byte
		funcName  = map[uint64]uint64{}
	)
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, v)
				}
				return nil
			})
		case 2: // sample
			rawSamps = append(rawSamps, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Weight samples by CPU nanoseconds when the profile carries them.
	valueIdx := len(typeNames) - 1
	for i, t := range typeNames {
		if int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	for id, s := range funcName {
		if int(s) < len(strs) {
			p.funcNames[id] = strs[s]
		}
	}
	for _, b := range rawSamps {
		var s profSample
		var values []uint64
		err := eachField(b, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				if b != nil {
					s.locs = appendPacked(s.locs, b)
				} else {
					s.locs = append(s.locs, v)
				}
			case 2:
				if b != nil {
					values = appendPacked(values, b)
				} else {
					values = append(values, v)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.weight = float64(int64(values[valueIdx]))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated message")

// eachField walks one protobuf message, handing each field to fn: varints
// arrive in v, length-delimited fields in b (nil for varints).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func appendPacked(dst []uint64, b []byte) []uint64 {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}
