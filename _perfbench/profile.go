package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// cpuModules are the buckets CPU-profile samples are attributed to. A
// sample goes to the innermost repro/internal/<module> frame on its stack
// ("pcsi" for the facade, "bench" for this benchmark's own code, "other"
// for any repro module not listed). Samples with no repro frame go to
// "syscall" when a system call or the network poller is on the stack and
// to "runtime_gc" otherwise (GC workers, the scheduler).
var cpuModules = []string{
	"sim", "core", "capability", "consistency", "store", "object", "simnet",
	"cluster", "faas", "scheduler", "platform", "taskgraph", "metrics",
	"trace", "pcsinet", "wire", "pcsi", "bench", "other", "runtime_gc",
	"syscall", "in_syscall",
}

// profiler collects one CPU profile in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// cpuAcc accumulates CPU-profile samples per cpuModules bucket over one
// or more profiled intervals.
type cpuAcc struct {
	counts map[string]int64
	total  int64
}

// stop ends the profile and adds its samples to acc. "in_syscall" counts
// samples with a system call anywhere on the stack, whichever module made
// it.
func (p *profiler) stop(acc *cpuAcc) error {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	if acc.counts == nil {
		acc.counts = map[string]int64{}
	}
	for _, s := range stacks {
		acc.total += s.n
		acc.counts[moduleOf(s.frames)] += s.n
		for _, f := range s.frames {
			if isSyscallFrame(f) {
				acc.counts["in_syscall"] += s.n
				break
			}
		}
	}
	return nil
}

// record stores each bucket's share of the samples as a "cpu.<module>"
// layer metric.
func (acc *cpuAcc) record(o *outcome) {
	for _, m := range cpuModules {
		o.layer["cpu."+m] = 0
		if acc.total > 0 {
			o.layer["cpu."+m] = float64(acc.counts[m]) / float64(acc.total)
		}
	}
	o.env = append(o.env, fmt.Sprintf("cpu_profile_samples=%d", acc.total))
}

// moduleOf attributes one stack (leaf first) to a cpuModules bucket.
func moduleOf(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "repro/internal/"):
			m := strings.TrimPrefix(f, "repro/internal/")
			if i := strings.IndexAny(m, "./"); i >= 0 {
				m = m[:i]
			}
			for _, known := range cpuModules {
				if m == known {
					return m
				}
			}
			return "other"
		case strings.HasPrefix(f, "repro/pcsi."):
			return "pcsi"
		case strings.HasPrefix(f, "main."):
			return "bench"
		case strings.HasPrefix(f, "repro/"):
			return "other"
		}
	}
	for _, f := range frames {
		if isSyscallFrame(f) || strings.HasPrefix(f, "internal/poll.") || strings.HasPrefix(f, "net.") {
			return "syscall"
		}
	}
	return "runtime_gc"
}

func isSyscallFrame(f string) bool {
	return strings.HasPrefix(f, "syscall.") ||
		strings.HasPrefix(f, "internal/runtime/syscall.") ||
		strings.HasPrefix(f, "runtime/internal/syscall.") ||
		strings.HasPrefix(f, "runtime.netpoll")
}

// stack is one profile sample: its frames, leaf first, and its count.
type stack struct {
	frames []string
	n      int64
}

// decodeProfile reads the gzipped profile.proto runtime/pprof writes,
// keeping only what attribution needs: sample location ids and counts,
// locations' (inlined) function ids, function names and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		n    int64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]uint64{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.n, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint visits a repeated varint field given either unpacked (v) or
// packed (b).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(x)
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
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// rtCounters are the Go runtime's own counters for this process.
type rtCounters struct {
	gcCPU, usedCPU float64 // seconds
	allocs         uint64
	procCPU        time.Duration // user+system, from getrusage
}

func readRuntime() rtCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var c rtCounters
	c.gcCPU = s[0].Value.Float64()
	c.usedCPU = s[1].Value.Float64() - s[2].Value.Float64()
	c.allocs = s[3].Value.Uint64()
	c.procCPU = processCPU()
	return c
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeLayers turns counter deltas over a measured interval into the
// runtime layer metrics.
func runtimeLayers(o *outcome, before, after rtCounters, ops int64) {
	o.layer["runtime.allocs_per_op"] = float64(after.allocs-before.allocs) / float64(ops)
	if used := after.usedCPU - before.usedCPU; used > 0 {
		o.layer["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / used
	} else {
		o.layer["runtime.gc_cpu_frac"] = 0
	}
}
