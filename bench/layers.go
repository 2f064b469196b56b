package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Layer attribution of CPU profile samples.
//
// A sample is charged to the innermost frame that belongs to one of the
// repository's packages (ecgrid/internal/<pkg>), so time spent in runtime
// map, allocation or GC code on behalf of a layer lands on that layer, not
// on "runtime": flat self time would charge SPAN's neighbour-map lookups
// to the runtime and hide the caller. Samples with no repository frame go
// to the benchmark's own code when it is on the stack, and to
// runtime.bg otherwise (GC workers, the scheduler, net/http plumbing).
// Independently of that charge, each sample's runtime work is classified
// as gc, alloc or maps, so the runtime's share stays visible per layer.

const repoPrefix = "ecgrid/internal/"

// layers are the repository packages reported as their own layer, named
// after the package (internal/protocols/span and /gaf as span and gaf).
// Any other repository package is charged to "other".
var layers = []string{
	"sim", "radio", "spatial", "ras", "mobility", "grid", "node", "energy",
	"core", "span", "gaf", "routing", "scengen", "shard",
	"server", "batch", "store",
}

// Charges that are not repository layers.
const (
	layerOther   = "other"      // a repository package outside layers
	layerBench   = "bench"      // the benchmark's own code
	layerRuntime = "runtime.bg" // no repository or benchmark frame at all
)

// allLayers lists every charge a sample can receive, in report order.
func allLayers() []string {
	return append(append([]string(nil), layers...), layerOther, layerBench, layerRuntime)
}

// funcPackage returns the import path of a profiled function name such as
// "ecgrid/internal/radio.(*Channel).startTransmission.func1" or
// "internal/runtime/maps.(*Map).getWithKey". Receiver and type-parameter
// brackets are cut first, since they may contain dots and slashes.
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoLayer maps a function to its repository layer, or "" when the
// function is not repository code. Only the exact module prefix matches:
// the standard library's internal/runtime/maps is not a repository layer.
func repoLayer(fn string) string {
	rel, ok := strings.CutPrefix(funcPackage(fn), repoPrefix)
	if !ok {
		return ""
	}
	if p, ok := strings.CutPrefix(rel, "protocols/"); ok {
		rel = p
	}
	for _, l := range layers {
		if rel == l {
			return l
		}
	}
	return layerOther
}

// isBenchFrame reports whether fn is the benchmark's own code: the
// main package of the built binary, or this package under go test.
func isBenchFrame(fn string) bool {
	p := funcPackage(fn)
	return p == "main" || p == "ecgrid/bench"
}

// layerOf charges one sample, given its stack innermost frame first.
func layerOf(frames []string) string {
	bench := false
	for _, fn := range frames {
		if l := repoLayer(fn); l != "" {
			return l
		}
		bench = bench || isBenchFrame(fn)
	}
	if bench {
		return layerBench
	}
	return layerRuntime
}

// Runtime work classes, reported as runtime.<class>_cpu_s.
const (
	classGC    = "gc"
	classAlloc = "alloc"
	classMaps  = "maps"
)

// gcFrames are runtime entry points of garbage-collector work: a stack
// through any of them is GC time, whoever's goroutine paid for it.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush",
}

// runtimeClass classifies a sample's runtime work: gc when a GC entry point
// is on the stack, alloc when the allocator is, maps when the leaf frame is
// map code; "" for anything else.
func runtimeClass(frames []string) string {
	alloc := false
	for _, fn := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return classGC
			}
		}
		alloc = alloc || strings.HasPrefix(fn, "runtime.mallocgc")
	}
	switch {
	case alloc:
		return classAlloc
	case len(frames) > 0 && (strings.HasPrefix(frames[0], "internal/runtime/maps.") ||
		strings.HasPrefix(frames[0], "runtime.map")):
		return classMaps
	}
	return ""
}

// attribution sums profile samples by charge.
type attribution struct {
	samples map[string]int64 // layer → samples
	nanos   map[string]int64 // layer → CPU ns
	runtime map[string]int64 // runtime class → CPU ns
	total   int64            // samples
}

func newAttribution() *attribution {
	return &attribution{
		samples: make(map[string]int64),
		nanos:   make(map[string]int64),
		runtime: make(map[string]int64),
	}
}

// add charges a decoded profile.
func (a *attribution) add(stacks []stackSample) {
	for _, s := range stacks {
		l := layerOf(s.frames)
		a.samples[l] += s.count
		a.nanos[l] += s.nanos
		if c := runtimeClass(s.frames); c != "" {
			a.runtime[c] += s.nanos
		}
		a.total += s.count
	}
}

// share returns layer's fraction of all samples.
func (a *attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.samples[layer]) / float64(a.total)
}

// stackSample is one profile sample: its stack as function names,
// innermost first, with the sample count and CPU time it carries.
type stackSample struct {
	frames []string
	count  int64
	nanos  int64
}

// readProfile decodes a CPU profile written by runtime/pprof.
func readProfile(path string) ([]stackSample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stacks, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return stacks, nil
}

// decodeProfile parses the (optionally gzipped) profile.proto encoding.
// Only the fields attribution needs are read: sample types, samples,
// locations with their (inlined) lines, functions and the string table.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		units   []int64 // string index of each sample type's unit
		samples []sample
		strs    []string
		locs    = make(map[uint64][]uint64) // location → function ids, innermost first
		funcs   = make(map[uint64]int64)    // function → name string index
	)
	err := walkMessage(data, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			var unit int64
			err := walkMessage(msg, func(n int, x uint64, _ []byte) error {
				if n == 2 {
					unit = int64(x)
				}
				return nil
			})
			units = append(units, unit)
			return err
		case 2: // sample
			var s sample
			err := walkMessage(msg, func(n int, x uint64, b []byte) error {
				switch n {
				case 1:
					return forVarints(x, b, func(u uint64) { s.locs = append(s.locs, u) })
				case 2:
					return forVarints(x, b, func(u uint64) { s.values = append(s.values, int64(u)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := walkMessage(msg, func(n int, x uint64, b []byte) error {
				switch n {
				case 1:
					id = x
				case 4: // line
					return walkMessage(b, func(m int, y uint64, _ []byte) error {
						if m == 1 {
							fids = append(fids, y)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkMessage(msg, func(n int, x uint64, _ []byte) error {
				switch n {
				case 1:
					id = x
				case 2:
					name = int64(x)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	countIdx, nanosIdx := -1, -1
	for i, u := range units {
		switch str(u) {
		case "count":
			countIdx = i
		case "nanoseconds":
			nanosIdx = i
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return nil, errors.New("not a CPU profile (no count and nanoseconds sample types)")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) != len(units) {
			return nil, errors.New("sample value count does not match sample types")
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				frames = append(frames, str(funcs[f]))
			}
		}
		out = append(out, stackSample{frames: frames, count: s.values[countIdx], nanos: s.values[nanosIdx]})
	}
	return out, nil
}

// walkMessage calls fn for each field of a protobuf message: varint
// fields pass their value, length-delimited fields their bytes. Fixed
// 32- and 64-bit fields are skipped (profile.proto uses none that
// attribution reads).
func walkMessage(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// forVarints handles a repeated integer field in either encoding: one
// unpacked value v, or a packed run of varints in b.
func forVarints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
