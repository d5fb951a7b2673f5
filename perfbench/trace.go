package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Parent is the id of the span that caused it (0 for the workload's root
// span); times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload run in memory until the run ends.
// A nil tracer records nothing, which is how the untraced run calls the same
// code.
type tracer struct {
	mu    sync.Mutex
	id    string
	began time.Time
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id, began: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.began).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.began).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns each span name's total self time in seconds: its
// spans' durations minus the parts their child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start) / 1e9
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= float64(s.End-s.Start) / 1e9
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Trace string             `json:"trace_id"`
		Self  map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{t.id, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a profiled function name to the layer it belongs to.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "selfemerge":
		return "selfemerge"
	case strings.HasPrefix(pkg, "selfemerge/internal/transport/simnet"):
		return "simnet"
	case strings.HasPrefix(pkg, "selfemerge/internal/crypto/"), strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case strings.HasPrefix(pkg, "selfemerge/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "selfemerge/internal/"), "/", 2)[0]
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuProfile is the part of a pprof CPU profile the benchmark reads: for
// each sample its CPU time and its stack of function names, leaf first.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// shares returns each layer's share of leaf-frame (self) CPU time.
func (p cpuProfile) shares() map[string]float64 {
	out := map[string]float64{}
	var total float64
	for i, st := range p.stacks {
		if len(st) == 0 {
			continue
		}
		out[layerOf(st[0])] += float64(p.nanos[i])
		total += float64(p.nanos[i])
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// cumShare returns the share of CPU time whose stack holds a function whose
// name ends with suffix.
func (p cpuProfile) cumShare(suffix string) float64 {
	var hit, total float64
	for i, st := range p.stacks {
		total += float64(p.nanos[i])
		for _, fn := range st {
			if strings.HasSuffix(fn, suffix) {
				hit += float64(p.nanos[i])
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return hit / total
}

// parseCPUProfile decodes the gzipped profile.proto written by
// runtime/pprof: samples (field 2), locations (4), functions (5) and the
// string table (6). Only the fields listed above are read.
func parseCPUProfile(data []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuProfile{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1 && b != nil:
					s.locs = append(s.locs, packed(b)...)
				case f == 1:
					s.locs = append(s.locs, v)
				case f == 2 && b != nil:
					for _, x := range packed(b) {
						s.values = append(s.values, int64(x))
					}
				case f == 2:
					s.values = append(s.values, int64(v))
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, err
	}
	var p cpuProfile
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, s.values[1])
	}
	return p, nil
}

var errProto = errors.New("malformed profile")

// eachField walks the fields of one protobuf message, passing varints as v
// and length-delimited fields as b.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n == 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n == 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			if err := fn(field, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
	}
	return nil
}

func uvarint(buf []byte) (uint64, int) {
	var v uint64
	for i, c := range buf {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func packed(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n == 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}
