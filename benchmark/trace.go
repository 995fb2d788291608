package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
)

// pauseTimer is a gc.Hooks observer that times every collection pause in
// host time. It reads only the wall clock, so the simulated results of a
// traced job are those of an untraced one (the hook-inertness test pins
// this through the sim digest).
type pauseTimer struct {
	gc.BaseHook
	depth int
	phase gc.Phase
	start time.Time
	spans []span
}

// BeforeGC opens a pause; a collection nested in another extends the
// outermost one.
func (p *pauseTimer) BeforeGC(ph gc.Phase) {
	if p.depth == 0 {
		p.start, p.phase = time.Now(), ph
	}
	p.depth++
}

// AfterGC closes the outermost pause.
func (p *pauseTimer) AfterGC(gc.Phase) {
	if p.depth == 0 {
		return
	}
	if p.depth--; p.depth == 0 {
		p.spans = append(p.spans, span{"gc." + p.phase.String(), p.start, time.Now()})
	}
}

// pauseStats sums the pause spans.
func (p *pauseTimer) pauseStats() (total, max time.Duration) {
	for _, s := range p.spans {
		d := s.end.Sub(s.start)
		total += d
		if d > max {
			max = d
		}
	}
	return total, max
}

// startProfile starts the CPU profiler; stop ends it and returns the
// encoded profile.
func startProfile() (stop func() []byte, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

const modulePrefix = "github.com/carv-repro/teraheap-go/internal/"

// layerOf maps a profiled function to the layer its self time is billed
// to: a simulator package (the frameworks on Spark share one layer), the
// Go runtime's hash maps, the rest of the Go runtime (allocation and
// collection, almost entirely), or other. It returns "" for the rest of
// the standard library, whose time goes to the calling layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiation: type arguments name other packages
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		switch rest {
		case "vm", "heap", "gc", "core", "storage", "serde", "giraph", "server", "simclock", "rt", "workloads":
			return rest
		case "spark", "graphx", "mllib", "sparksql":
			return "spark"
		case "baselines/g1":
			return "g1"
		}
		return "other"
	}
	switch {
	case pkg == "internal/runtime/maps",
		pkg == "runtime" && (strings.HasPrefix(fn, "runtime.map") || strings.Contains(fn, "hash")):
		return "goruntime.map"
	case pkg == "runtime", strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime.mem"
	case pkg != "main" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "" // standard library
	}
	return "other"
}

// billTo returns the layer a sample's time is billed to, given its stack
// from the leaf up: the first frame with a layer, or other.
func billTo(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// layerTimes decodes a gzipped pprof CPU profile and sums each sample's
// CPU nanoseconds on the layer billTo picks from its stack (self time,
// with standard-library leaves billed to their caller). Samples with a
// pprof label are left out.
func layerTimes(raw []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// Profile message fields: 2 sample, 4 location, 5 function, 6 string.
	type sample struct {
		locs []uint64 // leaf first
		ns   int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // function ids, innermost inlined call first
		funcStr  = map[uint64]uint64{}
		strs     []string
	)
	err = protoFields(pb, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample: 1 location_id (repeated), 2 value (repeated), 3 label
			var locs, vals []uint64
			labeled := false
			if err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					locs = appendRepeated(locs, v, d)
				case 2:
					vals = appendRepeated(vals, v, d)
				case 3:
					labeled = true
				}
				return nil
			}); err != nil {
				return err
			}
			// The only labeled samples are the calibration kernel's.
			if len(vals) > 1 && !labeled {
				samples = append(samples, sample{locs, int64(vals[1])}) // value 1: cpu ns
			}
		case 4: // Location: 1 id, 4 line (repeated; Line: 1 function_id)
			var id uint64
			var fns []uint64
			if err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return protoFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: 1 id, 2 name (string index)
			var id, name uint64
			if err := protoFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcStr[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	layers := map[string]int64{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcStr[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		layers[billTo(stack)] += s.ns
	}
	return layers, nil
}

// appendRepeated appends a repeated scalar field that arrives either as
// one varint or as a packed run of varints.
func appendRepeated(xs []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(xs, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			return xs
		}
		xs = append(xs, u)
		packed = packed[n:]
	}
	return xs
}

var errProto = errors.New("malformed protobuf")

// protoFields walks the fields of one protobuf message, passing varints
// as v and length-delimited fields as data (nil for any other field).
func protoFields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one Chrome trace-event "complete" span.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first traced job began
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the traced jobs' spans as Chrome trace-event JSON and
// the CPU profile under dir: job → rt.session, frame.load, frame.compute,
// and each GC pause under the frame call it interrupted.
func writeTrace(dir, workload string, jobs []*job, profile []byte) error {
	if len(jobs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 := jobs[0].start
	us := func(t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e3 }
	var events []traceEvent
	add := func(id int, s span, parent string) {
		events = append(events, traceEvent{Name: s.name, Ph: "X", Ts: us(s.start),
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"job": id, "parent": parent}})
	}
	for id, j := range jobs {
		add(id, span{"job", j.start, j.start.Add(j.wall)}, "")
		for _, s := range j.spans {
			add(id, s, "job")
		}
		for _, p := range j.pauses.spans {
			parent := "job"
			for _, s := range j.spans {
				if !p.start.Before(s.start) && !p.end.After(s.end) {
					parent = s.name
				}
			}
			add(id, p, parent)
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".spans.json"), b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".cpu.pprof"), profile, 0o644)
}
