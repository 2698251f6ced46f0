package main

// A small reader for the gzip-compressed protocol-buffer profiles that
// runtime/pprof writes, enough to fold CPU samples by their innermost
// frame. It decodes only the sample, location, function and string
// tables of the profile.proto schema (github.com/google/pprof), so the
// benchmark needs nothing outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// frame is a profile leaf: the innermost (inlined) function a sample
// was taken in, and its source file.
type frame struct {
	Func string
	File string
}

// cpuProfile holds sample counts folded by leaf frame.
type cpuProfile struct {
	Leaves map[frame]int64
	Total  int64
}

// pbuf decodes protocol-buffer wire format.
type pbuf struct {
	b []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next reads one field: its number, and either its varint value or (for
// length-delimited fields) its bytes. Fixed-width fields are skipped and
// reported as field 0.
func (p *pbuf) next() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
		return num, v, nil, err
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[n:]
		return 0, 0, nil, nil
	case 2:
		n, err := p.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
		return num, 0, data, nil
	default:
		return 0, 0, nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
}

// uints appends a repeated integer field, which encoders may write
// packed (one length-delimited run) or one varint per element.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// readProfile decodes a runtime/pprof CPU profile and folds its samples
// (the first sample value, the sample count) by leaf frame. When within
// is set, only samples whose stack passes through the function of that
// name are folded.
func readProfile(data []byte, within string) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	type function struct{ name, file uint64 }
	var (
		samples   []sample
		locFns    = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
		strs      []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				f, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					locs, err = uints(locs, v, d)
				case 2:
					vals, err = uints(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs, int64(vals[0])})
			}
		case 4: // Location: its Lines run from the innermost inlined frame out.
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				f, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var fn function
			q := pbuf{data}
			for len(q.b) > 0 {
				f, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
			}
			functions[id] = fn
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	passes := func(locs []uint64) bool {
		for _, l := range locs {
			for _, fn := range locFns[l] {
				if str(functions[fn].name) == within {
					return true
				}
			}
		}
		return false
	}
	prof := &cpuProfile{Leaves: map[frame]int64{}}
	for _, s := range samples {
		if within != "" && !passes(s.locs) {
			continue
		}
		var leaf function
		if fns := locFns[s.locs[0]]; len(fns) > 0 {
			leaf = functions[fns[0]]
		}
		prof.Leaves[frame{Func: str(leaf.name), File: str(leaf.file)}] += s.count
		prof.Total += s.count
	}
	return prof, nil
}

// hostLayers are the host-time stack's components, in report order.
// Every leaf frame folds into exactly one of them (layerOf).
var hostLayers = []string{
	"cpu_exec", "cpu_predecode", "cpu_funct", "cpu_other",
	"cache", "bpred", "mem", "telemetry", "fastpath", "runtime", "other",
}

// maxOtherPct bounds the unmapped share of a host-time stack, the host
// analogue of CPIStack.Check: more than this means the layer table no
// longer describes where the simulator spends its time. The bound is
// enforced only on profiles of at least minStackSamples samples; fewer
// cannot resolve a 10% share.
const (
	maxOtherPct     = 10
	minStackSamples = 50
)

// pkgOf returns the import path of a symbol name such as
// "repro/internal/cpu.(*CPU).execute" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a leaf frame to its host layer. The simulator core is
// split by source file: the execute loop, fetch-side predecoding (with
// the ISA decoder it calls), the functional engine, and the rest.
func layerOf(f frame) string {
	pkg := pkgOf(f.Func)
	switch pkg {
	case "repro/internal/cpu":
		switch path.Base(f.File) {
		case "exec.go":
			return "cpu_exec"
		case "predecode.go":
			return "cpu_predecode"
		case "funct.go":
			return "cpu_funct"
		}
		return "cpu_other"
	case "repro/internal/isa":
		return "cpu_predecode"
	case "repro/internal/cache":
		return "cache"
	case "repro/internal/bpred":
		return "bpred"
	case "repro/internal/mem":
		return "mem"
	case "repro/internal/telemetry", "repro/internal/profile", "repro/internal/trace":
		return "telemetry"
	case "repro/internal/fastpath":
		return "fastpath"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg" {
		return "runtime"
	}
	return "other"
}

// layerShares folds a profile into hostLayers, as percentages of all
// samples.
func layerShares(p *cpuProfile) map[string]float64 {
	out := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		out[l] = 0
	}
	if p.Total == 0 {
		return out
	}
	for f, n := range p.Leaves {
		out[layerOf(f)] += 100 * float64(n) / float64(p.Total)
	}
	return out
}

// topOther lists the heaviest leaf functions folded into "other", for
// the message when the unmapped share exceeds maxOtherPct.
func topOther(p *cpuProfile, k int) []string {
	type fn struct {
		name string
		n    int64
	}
	var fs []fn
	for f, n := range p.Leaves {
		if layerOf(f) == "other" {
			fs = append(fs, fn{f.Func, n})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].n > fs[j].n || fs[i].n == fs[j].n && fs[i].name < fs[j].name })
	var out []string
	for i := 0; i < len(fs) && i < k; i++ {
		out = append(out, fmt.Sprintf("%s %.1f%%", fs[i].name, 100*float64(fs[i].n)/float64(p.Total)))
	}
	return out
}
