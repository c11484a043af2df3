// Command perfbench is the repository benchmark. It drives one of three
// PCSI workloads through the public packages, checks every output, and
// prints its metrics; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload users-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer ones (see README.md for the table of which layer metric should
// move which end-to-end metric on which workload). The exit code is 0 only
// when every check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// endToEnd names the end-to-end metrics every workload reports with
// --trace 0, with their units. Each workload fills them with its own
// measurement (see README.md). Tails are gated at p90: the wall-clock p99
// of pcsid-rpc follows host hiccups on a shared VM (ten-run spread up to
// 0.4) while p90 does not; every p99 is still printed as a metric line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"get_p50_us", "us"},
	{"get_p90_us", "us"},
	{"put_p90_us", "us"},
	{"mem_mb", "MiB"},
}

// perLayer names the per-layer metrics every workload reports with
// --trace 1. A layer a workload never calls reports 0.
var perLayer = []metricDef{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.peak_live_procs", "count"},
	{"core.bytes_moved_per_op", "B"},
	{"core.cache_hits", "count"},
	{"consistency.lin_stale_reads", "count"},
	{"consistency.conflicts", "count"},
	{"simnet.msgs_per_op", "count"},
	{"simnet.bytes_per_op", "B"},
	{"faas.invocations", "count"},
	{"faas.cold_start_frac", "ratio"},
	{"faas.invoke_fails", "count"},
	{"faas.invoke_virt_p99_us", "us"},
	{"taskgraph.task_virt_p50_ms", "ms"},
	{"taskgraph.task_virt_p99_ms", "ms"},
	{"taskgraph.attempts", "count"},
	{"taskgraph.parallelism", "ratio"},
	{"taskgraph.makespan_virt_s", "s"},
	{"pcsinet.server_cpu_us_per_rpc", "us"},
	{"pcsinet.server_syscalls_per_rpc", "count"},
	{"pcsinet.server_virt_ms_per_rpc", "ms"},
	{"pcsinet.client_write_us", "us"},
	{"pcsinet.client_wait_us", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_rpc", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"gen.cpu_us_per_rpc", "us"},
	{"tracing.throughput_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

func init() {
	for _, m := range cpuModules {
		perLayer = append(perLayer, metricDef{"cpu." + m, "ratio"})
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces: the check counts, the
// end-to-end values, the per-layer values (traced runs only), and report
// lines that name each value as the workload defines it.
type outcome struct {
	attempted, failed int64
	e2e, layer        map[string]float64
	report            []string
	env               []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed check and prints it to standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// note adds a report line naming a measured value by its workload meaning.
func (o *outcome) note(name string, v float64, unit string, extra string) {
	line := fmt.Sprintf("metric %-28s %14.4f %-6s", name, v, unit)
	if extra != "" {
		line += " " + extra
	}
	o.report = append(o.report, line)
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	pcsid    string
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"users-zipf":    runUsers,
	"shuffle-graph": runShuffle,
	"pcsid-rpc":     runRPC,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "users-zipf, shuffle-graph or pcsid-rpc")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.pcsid, "pcsid", ".bench_build/pcsid", "pcsid binary for pcsid-rpc")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	self, _ := readProc(os.Getpid()) // peak RSS is informational: 0 where /proc is unreadable
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s peak_rss_mb=%.0f\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), self.hwmMB)
	for _, l := range o.env {
		fmt.Println("env " + l)
	}
	o.note("error_rate", float64(o.failed)/float64(max(o.attempted, 1)), "ratio",
		fmt.Sprintf("(%d failed of %d attempted)", o.failed, o.attempted))
	for _, l := range o.report {
		fmt.Println(l)
	}
	defs, vals := endToEnd, o.e2e
	if cfg.trace {
		defs, vals = perLayer, o.layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Correct = o.failed == 0 && o.attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// zeroLayers fills every per-layer metric the workload did not measure
// with 0: that layer does no work on this workload.
func zeroLayers(o *outcome) {
	for _, d := range perLayer {
		if _, ok := o.layer[d.name]; !ok {
			o.layer[d.name] = 0
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
