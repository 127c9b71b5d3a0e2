package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run folds a runtime/pprof CPU profile into self-time shares
// per layer. Allocation, GC, stack growth and the scheduler count as
// "runtime". Other runtime and standard-library frames, such as map
// access or container/heap under the event queue, count towards the
// nearest repository frame that called them. Anything else is "other".

// layers lists the share buckets in report order. Each is the import path
// of a repository package, relative to the module, except "runtime" and
// "other".
var layers = []struct{ name, pkg string }{
	{"sim", "vessel/internal/sim"},
	{"workload", "vessel/internal/workload"},
	{"stats", "vessel/internal/stats"},
	{"sched", "vessel/internal/sched"},
	{"vessel", "vessel/internal/vessel"},
	{"caladan", "vessel/internal/sched/caladan"},
	{"cfs", "vessel/internal/sched/cfs"},
	{"arachne", "vessel/internal/sched/arachne"},
	{"obs", "vessel/internal/obs"},
	{"journey", "vessel/internal/obs/journey"},
	{"harness", "vessel/internal/harness"},
	{"cpu", "vessel/internal/cpu"},
	{"mem", "vessel/internal/mem"},
	{"uproc", "vessel/internal/uproc"},
	{"vpkey", "vessel/internal/vpkey"},
	{"clustersched", "vessel/internal/clustersched"},
	{"runtime", ""},
	{"other", ""},
}

// funcPackage returns the import path of a symbol name as pprof records
// it, e.g. "vessel/internal/sim" for "vessel/internal/sim.(*Engine).Step".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments hold dots and slashes
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// isRepo reports whether pkg belongs to this module.
func isRepo(pkg string) bool { return pkg == "vessel" || strings.HasPrefix(pkg, "vessel/") }

// memoryManagement lists the runtime entry points whose work is
// allocation, garbage collection or stack growth rather than the caller's
// own logic.
var memoryManagement = []string{
	"runtime.mallocgc", "runtime.gcAssistAlloc", "runtime.gcWriteBarrier",
	"runtime.wbBufFlush", "runtime.gcStart", "runtime.GC",
	"runtime.morestack", "runtime.newstack",
}

func isMemoryManagement(fn string) bool {
	for _, p := range memoryManagement {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf names the bucket of a stack given leaf first. Walking up from
// the leaf, an allocation or GC entry point makes the sample "runtime"; the
// first repository frame otherwise owns it, with every runtime and
// standard-library frame below it (map access, copying, container/heap).
// A stack with no repository frame is "runtime" when its leaf is (the
// scheduler, background GC workers) and "other" otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case isRuntime(pkg) && isMemoryManagement(fn):
			return "runtime"
		case pkg == "main":
			return "other" // the benchmark's own code
		case !isRepo(pkg):
			continue
		}
		for _, l := range layers {
			if l.pkg == pkg {
				return l.name
			}
		}
		return "other"
	}
	if len(stack) > 0 && isRuntime(funcPackage(stack[0])) {
		return "runtime"
	}
	return "other"
}

// foldProfile reads a gzipped pprof CPU profile and returns each layer's
// share of sampled CPU time and the total sampled nanoseconds.
func foldProfile(data []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	return p.fold()
}

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbProfile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []pbSample
	locations   map[uint64][]uint64 // id -> function ids, innermost first
	functions   map[uint64]int64    // id -> name string index
	strings     []string
}

func (p *pbProfile) fold() (map[string]float64, int64, error) {
	vi := len(p.sampleTypes) - 1
	for i, st := range p.sampleTypes {
		if st[0] >= 0 && int(st[0]) < len(p.strings) && p.strings[st[0]] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("profile: no sample types")
	}
	byLayer := make(map[string]int64)
	var total int64
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("profile: sample without a cpu value")
		}
		stack = stack[:0]
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				if ni, ok := p.functions[fid]; ok && ni >= 0 && int(ni) < len(p.strings) {
					stack = append(stack, p.strings[ni])
				}
			}
		}
		v := s.values[vi]
		byLayer[layerOf(stack)] += v
		total += v
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l.name] = float64(byLayer[l.name]) / float64(total)
		} else {
			shares[l.name] = 0
		}
	}
	return shares, total, nil
}

// A minimal protobuf reader for the fields of profile.proto the fold
// needs.

type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("profile: bad varint")
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// field returns the next field's number and wire type, and its payload:
// the value for varints, the bytes for length-delimited fields.
func (r *pbReader) field() (num int, wire int, v uint64, data []byte) {
	key := r.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errors.New("profile: short fixed64")
			return
		}
		v = binary.LittleEndian.Uint64(r.b)
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = errors.New("profile: field overruns message")
			return
		}
		data = r.b[:n]
		r.b = r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errors.New("profile: short fixed32")
			return
		}
		v = uint64(binary.LittleEndian.Uint32(r.b))
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func parseProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		num, wire, _, data := r.field()
		if r.err != nil || wire != 2 {
			continue
		}
		m := pbReader{b: data}
		switch num {
		case 1: // sample_type
			var st [2]int64
			for len(m.b) > 0 && m.err == nil {
				f, _, v, _ := m.field()
				if f == 1 || f == 2 {
					st[f-1] = int64(v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, st)
		case 2: // sample
			var s pbSample
			var vals []uint64
			for len(m.b) > 0 && m.err == nil {
				f, w, v, d := m.field()
				var err error
				switch f {
				case 1:
					s.locations, err = uints(s.locations, w, v, d)
				case 2:
					vals, err = uints(vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for len(m.b) > 0 && m.err == nil {
				f, _, v, d := m.field()
				switch f {
				case 1:
					id = v
				case 4: // line
					l := pbReader{b: d}
					for len(l.b) > 0 && l.err == nil {
						if lf, _, lv, _ := l.field(); lf == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			for len(m.b) > 0 && m.err == nil {
				f, _, v, _ := m.field()
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		if m.err != nil {
			return nil, m.err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
