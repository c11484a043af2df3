package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// simCounters is a read of a deployment's public counters and this
// process's runtime counters at one instant.
type simCounters struct {
	events                                uint64
	bytesMoved, cacheHits, msgs, netBytes int64
	rt                                    rtCounters
}

func readSim(c *core.Cloud) simCounters {
	return simCounters{
		events:     c.Env().Dispatched(),
		bytesMoved: c.BytesMoved,
		cacheHits:  c.CacheHits,
		msgs:       c.Net().Msgs,
		netBytes:   c.Net().Bytes,
		rt:         readRuntime(),
	}
}

// simRep is what every rep of a simulated workload measures: wall times,
// counter deltas over the measured phase, and the virtual latencies of the
// data operations it issued.
type simRep struct {
	setupS, wallS  float64
	ops            int64 // data operations (Get/Put) issued in the measured phase
	getLat, putLat []int64
	memMB          float64
	liveProcs      int
	before, after  simCounters
	linStale       int64
	conflicts      int64
	traced         bool
}

// measure runs the deployment's queued work to completion, profiling it
// into acc when profile is set. A probe scheduled at virtual time memAt
// forces a GC and reads live heap plus goroutine stacks; its wall time is
// excluded from the run.
func (r *simRep) measure(c *core.Cloud, memAt sim.Time, profile bool, acc *cpuAcc) error {
	env := c.Env()
	var probe time.Duration
	env.At(memAt, func() {
		t := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.memMB = float64(ms.HeapAlloc+ms.StackInuse) / (1 << 20)
		r.liveProcs = env.LiveProcs()
		probe = time.Since(t)
	})
	r.before = readSim(c)
	t := time.Now()
	var prof *profiler
	if profile {
		var err error
		if prof, err = startProfile(); err != nil {
			return err
		}
	}
	env.Run()
	r.wallS = (time.Since(t) - probe).Seconds()
	if prof != nil {
		if err := prof.stop(acc); err != nil {
			return err
		}
	}
	r.after = readSim(c)
	r.linStale, r.conflicts = c.Group().LinStaleReads, c.Group().Conflicts
	slices.Sort(r.getLat)
	slices.Sort(r.putLat)
	return nil
}

func (r *simRep) opsPerS() float64 { return float64(r.ops) / r.wallS }

// fingerprint is what must repeat exactly across reps of one seed.
func (r *simRep) fingerprint() string {
	return fmt.Sprintf("ops=%d gets=%d puts=%d events=%d get_p50=%d get_p90=%d get_p99=%d put_p90=%d put_p99=%d msgs=%d",
		r.ops, len(r.getLat), len(r.putLat), r.after.events-r.before.events,
		quantile(r.getLat, 0.5), quantile(r.getLat, 0.9), quantile(r.getLat, 0.99),
		quantile(r.putLat, 0.9), quantile(r.putLat, 0.99), r.after.msgs-r.before.msgs)
}

// repeatSim runs reps until the next one would overrun the run length,
// and at least two, so the determinism check always has a pair to compare.
// Traced runs profile every other rep,
// so untraced reps interleaved with them give the overhead baseline. It
// checks every rep against the first for determinism and for stale
// linearizable reads.
func repeatSim(cfg config, o *outcome, name string, once func(profile bool, acc *cpuAcc) (*simRep, error)) ([]*simRep, *cpuAcc, error) {
	var reps []*simRep
	acc := &cpuAcc{}
	const minReps = 2
	began := time.Now()
	for {
		runtime.GC()
		profile := cfg.trace && len(reps)%2 == 1
		rep, err := once(profile, acc)
		if err != nil {
			return nil, nil, err
		}
		rep.traced = profile
		reps = append(reps, rep)
		o.attempted += rep.ops
		if rep.linStale != 0 {
			o.fail("%s: %d stale linearizable reads", name, rep.linStale)
		}
		if f, f0 := rep.fingerprint(), reps[0].fingerprint(); f != f0 {
			o.fail("%s: rep %d not deterministic: %s, first rep %s", name, len(reps), f, f0)
		}
		elapsed := secondsSince(began)
		if len(reps) >= minReps && elapsed*float64(len(reps)+1)/float64(len(reps)) > cfg.seconds {
			break
		}
	}
	rates := make([]string, len(reps))
	for i, r := range reps {
		rates[i] = fmt.Sprintf("%.0f/%.0f", r.opsPerS(), float64(r.ops)/(r.after.rt.procCPU-r.before.rt.procCPU).Seconds())
	}
	o.env = append(o.env, fmt.Sprintf("reps=%d ops_per_s_by_rep=%s", len(reps), strings.Join(rates, ",")),
		"determinism "+reps[0].fingerprint())
	return reps, acc, nil
}

// simEndToEnd fills the end-to-end metrics shared by the simulated
// workloads: medians over reps for wall-clock values, the first rep for
// virtual ones (every rep repeats them exactly).
func simEndToEnd(o *outcome, reps []*simRep) {
	var setups, rates, mems []float64
	for _, r := range reps {
		setups = append(setups, r.setupS)
		rates = append(rates, r.opsPerS())
		mems = append(mems, r.memMB)
	}
	r0 := reps[0]
	o.e2e["setup_s"] = median(setups)
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["get_p50_us"] = us(quantile(r0.getLat, 0.5))
	o.e2e["get_p90_us"] = us(quantile(r0.getLat, 0.9))
	o.e2e["put_p90_us"] = us(quantile(r0.putLat, 0.9))
	o.e2e["mem_mb"] = median(mems)
	gets, puts := fmt.Sprintf("n=%d", len(r0.getLat)), fmt.Sprintf("n=%d", len(r0.putLat))
	o.note("setup_s", o.e2e["setup_s"], "s", fmt.Sprintf("(median of %d reps)", len(reps)))
	o.note("sim_ops_per_s", o.e2e["ops_per_s"], "ops/s", fmt.Sprintf("(median of %d reps, %d ops each)", len(reps), r0.ops))
	o.note("virt_get_p50_us", o.e2e["get_p50_us"], "us", gets)
	o.note("virt_get_p90_us", o.e2e["get_p90_us"], "us", gets)
	o.note("virt_get_p99_us", us(quantile(r0.getLat, 0.99)), "us", gets)
	o.note("virt_put_p90_us", o.e2e["put_p90_us"], "us", puts)
	o.note("virt_put_p99_us", us(quantile(r0.putLat, 0.99)), "us", puts)
	o.note("mem_live_mb", o.e2e["mem_mb"], "MiB", fmt.Sprintf("(median; %d live procs at the probe)", r0.liveProcs))
}

// simLayers fills the per-layer metrics of the engine, core, consistency,
// simnet and runtime layers from the traced reps.
func simLayers(o *outcome, reps []*simRep, acc *cpuAcc) {
	var traced []*simRep
	var rates, plainRates, nsEv []float64
	for _, r := range reps {
		if !r.traced {
			plainRates = append(plainRates, r.opsPerS())
			continue
		}
		traced = append(traced, r)
		rates = append(rates, r.opsPerS())
		nsEv = append(nsEv, r.wallS*1e9/float64(r.after.events-r.before.events))
	}
	t := traced[len(traced)-1]
	ops := float64(t.ops)
	o.layer["sim.events_per_op"] = float64(t.after.events-t.before.events) / ops
	o.layer["sim.ns_per_event"] = median(nsEv)
	o.layer["sim.peak_live_procs"] = float64(t.liveProcs)
	o.layer["core.bytes_moved_per_op"] = float64(t.after.bytesMoved-t.before.bytesMoved) / ops
	o.layer["core.cache_hits"] = float64(t.after.cacheHits - t.before.cacheHits)
	o.layer["consistency.lin_stale_reads"] = float64(t.linStale)
	o.layer["consistency.conflicts"] = float64(t.conflicts)
	o.layer["simnet.msgs_per_op"] = float64(t.after.msgs-t.before.msgs) / ops
	o.layer["simnet.bytes_per_op"] = float64(t.after.netBytes-t.before.netBytes) / ops
	o.layer["tracing.throughput_ratio"] = median(rates) / median(plainRates)
	runtimeLayers(o, t.before.rt, t.after.rt, t.ops)
	acc.record(o)
}

// drain runs a deployment's queued set-up work without closing its
// environment (Env.Run would abort parked processes and refuse new ones).
func drain(env *sim.Env) {
	for env.Pending() > 0 {
		env.RunUntil(env.Now().Add(time.Second))
	}
}
