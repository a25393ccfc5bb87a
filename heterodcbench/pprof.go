package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// standard library has no public decoder, so this file reads the few fields
// the self-time fold needs: samples (location ids and values), locations
// (their line entries, innermost inlined function first), functions and the
// string table.

// profSample is one stack with its CPU value, frames leaf first.
type profSample struct {
	frames []string
	value  int64
}

// parseProfile decodes a gzipped CPU profile into leaf-first stacks
// weighted by CPU time (the "cpu" sample type, else the last value).
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids
		funcName    = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s rawSample
			if err := walkFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, pb)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, pb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		ps := profSample{value: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.frames = append(ps.frames, str(funcName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message. Varint and
// fixed-width values arrive in v; length-delimited payloads in b.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOfPackage maps a heterodc/internal package to the layer its
// self time is reported under, where the two differ. Packages that are
// neither listed nor a reported layer themselves report as "other".
var layerOfPackage = map[string]string{
	// The toolchain: front end, IR, back end, linker and the build entry
	// points that call them (core.Build, npb.Build).
	"minic": "toolchain", "ir": "toolchain", "compiler": "toolchain",
	"link": "toolchain", "core": "toolchain", "npb": "toolchain",
	// Placement, traffic generation and the energy meter it samples.
	"traffic": "sched", "power": "sched",
	// The system-call interface the kernel serves.
	"sys": "kernel",
	// Fault plans decide drops and crashes on the interconnect's path.
	"fault": "msg",
	// The migration baselines: serialization and binary translation.
	"serial": "xform", "dbt": "machine",
}

// gcAllocFrames are the Go runtime entry points of allocation and garbage
// collection; a sample whose leaf-side runtime frames include one of them
// is GC/alloc time, not time of the layer that allocated.
var gcAllocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
	"runtime.makemap", "runtime.gc", "runtime.GC", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
}

const internalPrefix = "heterodc/internal/"

var reportedLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range selfFracLayers {
		m[l] = true
	}
	return m
}()

// layerOf attributes one sample's self time: walking from the leaf, the
// first heterodc layer frame owns it, unless a GC/alloc runtime frame comes
// first. Other standard-library frames (map lookups, memmove, sort) are work
// done for their caller and pass through. Stacks with no layer frame
// (scheduler, profiler, the benchmark's own code) are "other".
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, internalPrefix) {
			rest := f[len(internalPrefix):]
			pkg := rest
			if i := strings.IndexByte(rest, '.'); i >= 0 {
				pkg = rest[:i]
			}
			if l, ok := layerOfPackage[pkg]; ok {
				return l
			}
			if reportedLayer[pkg] {
				return pkg
			}
			return "other"
		}
		for _, p := range gcAllocFrames {
			if strings.HasPrefix(f, p) {
				return "go.gc_alloc"
			}
		}
		if strings.HasPrefix(f, "main.") {
			return "other"
		}
	}
	return "other"
}

// foldSelfTime returns each layer's share of the sampled CPU time.
func foldSelfTime(samples []profSample) (map[string]float64, int64) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[layerOf(s.frames)] += s.value
		total += s.value
	}
	out := map[string]float64{}
	if total == 0 {
		return out, 0
	}
	for l, v := range byLayer {
		out[l] = float64(v) / float64(total)
	}
	return out, total
}
