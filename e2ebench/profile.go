package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Package attribution. A profile sample is charged to the innermost
// frame that belongs to one of the program's layers; standard-library
// and runtime frames in between are transparent, so time a layer spends
// in sort, math or memmove stays with that layer. Two runtime costs are
// split out first because every layer pays them: garbage collection
// (background marking, assists, sweeping, write barriers) and
// allocation (mallocgc and its callers).

// layerBuckets are the package buckets, in report order. "loadgen" is
// this benchmark's own code; "nethttp" is net/http on both the client
// and the server side; "metrics" includes internal/stats.
var layerBuckets = []string{
	"sim", "resource", "server", "netmodel", "lb", "workload", "metrics", "cluster",
	"httpcluster", "nethttp", "loadgen", "probe", "admission", "other",
}

// cpuBuckets adds the two runtime buckets split out of CPU time.
var cpuBuckets = append([]string{"runtime.malloc", "runtime.gc"}, layerBuckets...)

const (
	modulePrefix = "millibalance/internal/"
	benchPackage = "millibalance/e2ebench"
)

// funcPackage returns the import path of a symbol name as profiles and
// runtime.Frame report it, e.g. "millibalance/internal/sim" for
// "millibalance/internal/sim.(*Engine).Step".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a frame's function to its bucket; ok is false for
// frames that are transparent (runtime and the rest of the standard
// library).
func layerOf(fn string) (bucket string, ok bool) {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		switch name := strings.TrimPrefix(pkg, modulePrefix); name {
		case "stats":
			return "metrics", true
		case "sim", "resource", "server", "netmodel", "lb", "workload", "metrics", "cluster",
			"httpcluster", "probe", "admission":
			return name, true
		default:
			return "other", true
		}
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "nethttp", true
	case pkg == "main" || pkg == benchPackage: // the latter in test binaries
		return "loadgen", true
	}
	return "", false
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.wbBufFlush",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked)", "runtime.(*scavengerState)",
}

var mallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuBucket attributes one CPU sample's stack, given leaf first.
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if hasPrefixAny(fn, gcPrefixes) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if hasPrefixAny(fn, mallocPrefixes) {
			return "runtime.malloc"
		}
	}
	return allocBucket(stack)
}

// allocBucket attributes a stack, given leaf first, to its innermost
// layer frame.
func allocBucket(stack []string) string {
	for _, fn := range stack {
		if b, ok := layerOf(fn); ok {
			return b
		}
	}
	return "other"
}

// shares normalises weights per bucket so they sum to 1 over buckets.
func shares(weights map[string]float64, buckets []string) map[string]float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		if total > 0 {
			out[b] = weights[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}

// layerProfile is the per-package breakdown of one profiled window.
type layerProfile struct {
	cpu, alloc map[string]float64
}

func (p *layerProfile) report(rep *report) {
	for _, b := range cpuBuckets {
		rep.set(b+".cpu_share", "share", p.cpu[b])
	}
	for _, b := range layerBuckets {
		rep.set(b+".alloc_share", "share", p.alloc[b])
	}
}

// profileLayers runs fn under the CPU profiler and attributes its CPU
// time and its sampled heap allocations by package.
func profileLayers(fn func()) (*layerProfile, error) {
	before := allocSites()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	after := allocSites()

	cpu, err := cpuWeights(&buf)
	if err != nil {
		return nil, err
	}
	alloc := make(map[string]float64)
	for key, rec := range after {
		prev := before[key]
		alloc[allocBucket(rec.frames)] += unsampledBytes(rec.objects-prev.objects, rec.bytes-prev.bytes, runtime.MemProfileRate)
	}
	return &layerProfile{cpu: shares(cpu, cpuBuckets), alloc: shares(alloc, layerBuckets)}, nil
}

// memRecord is one allocation site of the heap profile.
type memRecord struct {
	objects, bytes int64
	frames         []string
}

// unsampledBytes estimates the bytes an allocation site really
// allocated from its sampled objects and bytes. The runtime samples an
// allocation of size s with probability 1-exp(-s/rate), so raw sampled
// bytes under-count small objects; this is the correction pprof applies
// when it writes a heap profile.
func unsampledBytes(objects, bytes int64, rate int) float64 {
	if objects <= 0 || bytes <= 0 {
		return 0
	}
	if rate <= 1 {
		return float64(bytes)
	}
	avg := float64(bytes) / float64(objects)
	return float64(bytes) / (1 - math.Exp(-avg/float64(rate)))
}

// allocSites snapshots the cumulative allocations per stack
// since the process started. The collection first publishes every
// allocation made so far into the profile.
func allocSites() map[[32]uintptr]memRecord {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]memRecord, len(recs))
	for _, r := range recs {
		m := out[r.Stack0]
		if m.frames == nil {
			m.frames = frameNames(r.Stack())
		}
		m.objects += r.AllocObjects
		m.bytes += r.AllocBytes
		out[r.Stack0] = m
	}
	return out
}

func frameNames(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// cpuWeights parses a gzipped pprof CPU profile and returns the CPU
// nanoseconds per bucket.
func cpuWeights(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			valueIdx = i
		}
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		out[cpuBucket(p.stack(s))] += float64(s.values[valueIdx])
	}
	return out, nil
}

// profile is the subset of the pprof profile.proto message the
// attribution needs.
type profile struct {
	sampleTypes []string
	samples     []pbSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type pbSample struct {
	locations []uint64
	values    []int64
}

// stack resolves a sample's function names, leaf first.
func (p *profile) stack(s pbSample) []string {
	var names []string
	for _, loc := range s.locations {
		for _, fid := range p.locations[loc] {
			if idx := p.functions[fid]; idx >= 0 && int(idx) < len(p.strings) {
				names = append(names, p.strings[idx])
			}
		}
	}
	return names
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	var typeIdx []int64
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s pbSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locations, v, d)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4{function_id=1}}
			var id uint64
			var funcs []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // function: {id=1, name=2}
			var id uint64
			name := int64(-1)
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, i := range typeIdx {
		if i >= 0 && int(i) < len(p.strings) {
			p.sampleTypes = append(p.sampleTypes, p.strings[i])
		}
	}
	return p, nil
}

// appendPacked appends one repeated integer field, whether encoded as a
// single varint or as a packed run.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks one protobuf message. Varint fields arrive as v with
// nil data, length-delimited fields as data (non-nil, possibly empty);
// fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}
