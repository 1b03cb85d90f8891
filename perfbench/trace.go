package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"time"
)

// span is one timed call into a simulator layer. Start and End are
// nanoseconds since the recorder's origin; Parent indexes the enclosing
// span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	// CPU is the process CPU time (all threads) spent during the span.
	CPU int64 `json:"cpu_ns"`
}

// spans records layer-call spans in memory. A nil *spans records nothing,
// so untraced runs pass nil through the same code.
type spans struct {
	origin time.Time
	op     int32
	open   []int32 // stack of open span indices
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (s *spans) begin(name string) int32 {
	if s == nil {
		return -1
	}
	parent := int32(-1)
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	id := int32(len(s.list))
	s.list = append(s.list, span{Name: name, Start: int64(time.Since(s.origin)), Parent: parent, Op: s.op, CPU: -processCPU()})
	s.open = append(s.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int32) {
	if s == nil {
		return
	}
	s.list[id].CPU += processCPU()
	s.list[id].End = int64(time.Since(s.origin))
	s.open = s.open[:len(s.open)-1]
}

// selfTimes returns each span name's total duration and self time (its
// duration minus the time its direct children cover), in nanoseconds.
func (s *spans) selfTimes() (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	if s == nil {
		return
	}
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range s.list {
		d := sp.End - sp.Start
		total[sp.Name] += d
		self[sp.Name] += d - child[i]
	}
	return
}

// processCPU is the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cpuPerWall is the process CPU time over wall time summed across spans
// named name: about 1 for a serial call, up to GOMAXPROCS when parallel.
func (s *spans) cpuPerWall(name string) float64 {
	var cpu, wall int64
	if s != nil {
		for _, sp := range s.list {
			if sp.Name == name {
				cpu += sp.CPU
				wall += sp.End - sp.Start
			}
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(cpu) / float64(wall)
}

// durations returns the durations in milliseconds of every span whose
// name has the given prefix.
func (s *spans) durations(prefix string) []float64 {
	var out []float64
	if s == nil {
		return out
	}
	for _, sp := range s.list {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

func (s *spans) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the cpu_share.* buckets, named after the repository's
// modules. layerOf maps a profiled function to its bucket by package.
var layers = []string{"eventsim", "radio", "mac", "linksec", "tree", "core", "stream", "topology", "runtime", "other"}

const modulePrefix = "github.com/ipda-sim/ipda/internal/"

func layerOf(fn string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		switch rest {
		case "eventsim", "radio", "mac", "linksec", "tree", "core", "stream", "topology":
			return rest
		case "tag", "mtree", "fault":
			return "core" // the other protocol engines and churn
		case "geom", "world":
			return "topology" // deployment geometry and arenas
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(pkg, "crypto/"):
		return "linksec"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a symbol such as
// "github.com/x/y/internal/radio.(*Medium).finish" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares folds a gzipped pprof CPU profile by the layer of each
// sample's leaf function (flat time) and returns each layer's share of the
// sampled CPU time in percent.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
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
	byLayer := map[string]float64{}
	var sum float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		layer := "other"
		if lines := p.locLines[s.locs[0]]; len(lines) > 0 {
			layer = layerOf(p.strings[p.funcName[lines[0]]])
		}
		byLayer[layer] += v
		sum += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if sum > 0 {
			out[l] = 100 * byLayer[l] / sum
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the folding needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf wire format of a pprof profile:
// Profile{2: sample, 4: location, 5: function, 6: string_table},
// Sample{1: location_id, 2: value}, Location{1: id, 4: line},
// Line{1: function_id}, Function{1: id, 2: name}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch {
		case num == 2 && wire == 2:
			var s sample
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, sub)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := eachField(msg, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case num == 6 && wire == 2:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("cpu profile: function name out of range")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
