package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/taskgraph"
)

// shuffle-graph: map/shuffle/reduce jobs run as PCSI task graphs (the
// Occupy-the-Cloud shape). Maps read an input, compute, and write one
// partition per reducer; each reducer waits for every map, reads its
// partitions and writes their byte total. Every data operation counts
// toward throughput; the latency percentiles are those of the shuffle
// itself (partition writes and reads), not of the few larger input reads.
const (
	shuffleJobs     = 4
	shuffleMaps     = 256
	shuffleReduces  = 64
	shuffleInput    = 64 << 10
	shuffleCompute  = 2 * time.Millisecond
	shufflePartMin  = 512 // partition sizes are uniform in [min, min+spread)
	shufflePartSpan = 1024
	shuffleMemAt    = 10 * time.Millisecond // into the first job's map phase
)

// shuffleInputs are generated from the seed: partition sizes per job, map
// and reducer, and the map inputs' filler.
type shuffleInputs struct {
	seed   int64
	sizes  [][][]int // [job][map][reduce]
	totals [][]int64 // [job][reduce] expected reducer output
	filler []byte
}

func newShuffleInputs(seed int64) *shuffleInputs {
	r := newRNG(seed, 1<<41)
	in := &shuffleInputs{seed: seed, filler: make([]byte, shuffleInput)}
	for i := range in.filler {
		in.filler[i] = byte(r.next())
	}
	in.sizes = make([][][]int, shuffleJobs)
	in.totals = make([][]int64, shuffleJobs)
	for j := range in.sizes {
		in.sizes[j] = make([][]int, shuffleMaps)
		in.totals[j] = make([]int64, shuffleReduces)
		for m := range in.sizes[j] {
			in.sizes[j][m] = make([]int, shuffleReduces)
			for rd := range in.sizes[j][m] {
				n := shufflePartMin + r.intn(shufflePartSpan)
				in.sizes[j][m][rd] = n
				in.totals[j][rd] += int64(n)
			}
		}
	}
	return in
}

// A partition (and an input) starts with a 24-byte header naming the job,
// map and reducer it belongs to, so a reducer can tell a stale or misrouted
// read from a fresh one.
func header(b []byte, job, m, rd int) {
	binary.LittleEndian.PutUint64(b[0:], uint64(job))
	binary.LittleEndian.PutUint64(b[8:], uint64(m))
	binary.LittleEndian.PutUint64(b[16:], uint64(rd))
}

func checkHeader(b []byte, job, m, rd int) error {
	if len(b) < 24 ||
		binary.LittleEndian.Uint64(b[0:]) != uint64(job) ||
		binary.LittleEndian.Uint64(b[8:]) != uint64(m) ||
		binary.LittleEndian.Uint64(b[16:]) != uint64(rd) {
		return fmt.Errorf("object for job %d map %d reduce %d has the wrong header", job, m, rd)
	}
	return nil
}

// taskArg is the by-value body of a map or reduce task: job and index.
func taskArg(job, i int) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(job))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	return b[:]
}

func parseTaskArg(b []byte) (job, i int) {
	return int(binary.LittleEndian.Uint64(b[0:])), int(binary.LittleEndian.Uint64(b[8:]))
}

// shuffleRep adds the task-graph measurements to a simulated rep.
type shuffleRep struct {
	simRep
	makespans []int64 // virtual ns per job
	taskLat   []int64 // virtual ns per task, sorted
	taskBusy  int64   // Σ task durations, virtual ns
	attempts  int64
	invokes   int64
	colds     int64
	fails     int64
	invokeP99 time.Duration
}

func shuffleOnce(in *shuffleInputs, o *outcome, profile bool, acc *cpuAcc) (*shuffleRep, error) {
	rep := &shuffleRep{}
	t0 := time.Now()
	opts := core.DefaultOptions()
	opts.Seed = in.seed
	c := core.New(opts)
	env := c.Env()
	client := c.NewClient(0)
	fnRes := cluster.Resources{MilliCPU: 1000}

	mapFn := func(fc *core.FnCtx) error {
		p := fc.Proc()
		job, m := parseTaskArg(fc.Body)
		data, err := fc.Client.Get(p, fc.Inputs[0])
		rep.ops++
		if err != nil {
			return err
		}
		if len(data) != shuffleInput {
			return fmt.Errorf("map %d: input has %d bytes", m, len(data))
		}
		if err := checkHeader(data, -1, m, -1); err != nil {
			return err
		}
		p.Sleep(shuffleCompute)
		for rd, out := range fc.Outputs {
			part := make([]byte, in.sizes[job][m][rd])
			header(part, job, m, rd)
			t := p.Now()
			err := fc.Client.Put(p, out, part)
			rep.putLat = append(rep.putLat, int64(p.Now().Sub(t)))
			rep.ops++
			if err != nil {
				return err
			}
		}
		return nil
	}
	reduceFn := func(fc *core.FnCtx) error {
		p := fc.Proc()
		job, rd := parseTaskArg(fc.Body)
		var total int64
		for m, ref := range fc.Inputs {
			t := p.Now()
			data, err := fc.Client.Get(p, ref)
			rep.getLat = append(rep.getLat, int64(p.Now().Sub(t)))
			rep.ops++
			if err != nil {
				return err
			}
			if err := checkHeader(data, job, m, rd); err != nil {
				return err
			}
			total += int64(len(data))
		}
		rep.ops++
		return fc.Client.Put(p, fc.Outputs[0], []byte(strconv.FormatInt(total, 10)))
	}

	// Set-up: register both functions and create every object the jobs
	// use, one creating process per cluster node.
	var mapRef, reduceRef core.Ref
	inputs := make([]core.Ref, shuffleMaps)
	parts := make([][]core.Ref, shuffleMaps) // [map][reduce]
	outputs := make([]core.Ref, shuffleReduces)
	var setupErr error
	setFail := func(err error) {
		if setupErr == nil {
			setupErr = err
		}
	}
	env.Go("register", func(p *sim.Proc) {
		var err error
		if mapRef, err = client.RegisterFunction(p, core.FnConfig{Name: "map", Kind: platform.Wasm, Res: fnRes, Handler: mapFn}); err != nil {
			setFail(err)
		}
		if reduceRef, err = client.RegisterFunction(p, core.FnConfig{Name: "reduce", Kind: platform.Wasm, Res: fnRes, Handler: reduceFn}); err != nil {
			setFail(err)
		}
	})
	nodes := c.Cluster().Nodes()
	for w, n := range nodes {
		cl := c.ClientAt(n.ID)
		env.Go("setup", func(p *sim.Proc) {
			create := func() core.Ref {
				r, err := cl.Create(p, object.Regular)
				if err != nil {
					setFail(err)
				}
				return r
			}
			for m := w; m < shuffleMaps; m += len(nodes) {
				inputs[m] = create()
				data := append([]byte(nil), in.filler...)
				header(data, -1, m, -1)
				if err := cl.Put(p, inputs[m], data); err != nil {
					setFail(err)
				}
				parts[m] = make([]core.Ref, shuffleReduces)
				for rd := range parts[m] {
					parts[m][rd] = create()
				}
			}
			for rd := w; rd < shuffleReduces; rd += len(nodes) {
				outputs[rd] = create()
			}
		})
	}
	drain(env)
	if setupErr != nil {
		return nil, fmt.Errorf("setup: %w", setupErr)
	}
	rep.setupS = secondsSince(t0)

	// The jobs run back to back from one coordinator process; after each,
	// the coordinator reads every reducer output and checks it against the
	// total the seed implies.
	mapNames := make([]string, shuffleMaps)
	for m := range mapNames {
		mapNames[m] = "map" + strconv.Itoa(m)
	}
	var results []*taskgraph.Result
	env.Go("coordinator", func(p *sim.Proc) {
		for job := 0; job < shuffleJobs; job++ {
			tasks := make([]core.GraphTask, 0, shuffleMaps+shuffleReduces)
			for m := 0; m < shuffleMaps; m++ {
				tasks = append(tasks, core.GraphTask{Name: mapNames[m], Fn: mapRef, Body: taskArg(job, m),
					Inputs: []core.Ref{inputs[m]}, Outputs: parts[m]})
			}
			for rd := 0; rd < shuffleReduces; rd++ {
				ins := make([]core.Ref, shuffleMaps)
				for m := range ins {
					ins[m] = parts[m][rd]
				}
				tasks = append(tasks, core.GraphTask{Name: "reduce" + strconv.Itoa(rd), Fn: reduceRef, Body: taskArg(job, rd),
					After: mapNames, Inputs: ins, Outputs: []core.Ref{outputs[rd]}})
			}
			t := p.Now()
			res, err := client.RunGraph(p, tasks)
			rep.makespans = append(rep.makespans, int64(p.Now().Sub(t)))
			if err != nil {
				o.fail("shuffle-graph: job %d: %v", job, err)
			}
			for _, tk := range tasks {
				r := res[tk.Name]
				if r == nil {
					o.fail("shuffle-graph: job %d: task %s has no result", job, tk.Name)
					continue
				}
				results = append(results, r)
				if r.Err != nil {
					o.fail("shuffle-graph: job %d: task %s: %v", job, tk.Name, r.Err)
				}
			}
			for rd, ref := range outputs {
				data, err := client.Get(p, ref)
				rep.ops++
				switch {
				case err != nil:
					o.fail("shuffle-graph: job %d: read output %d: %v", job, rd, err)
				case string(data) != strconv.FormatInt(in.totals[job][rd], 10):
					o.fail("shuffle-graph: job %d: reducer %d wrote %q, want %d", job, rd, data, in.totals[job][rd])
				}
			}
		}
	})
	rt := c.Runtime()
	inv0, cold0, fail0 := rt.Invocations.Value(), rt.ColdStarts.Value(), rt.InvokeFails.Value()
	if err := rep.measure(c, env.Now().Add(shuffleMemAt), profile, acc); err != nil {
		return nil, err
	}
	rep.invokes = rt.Invocations.Value() - inv0
	rep.colds = rt.ColdStarts.Value() - cold0
	rep.fails = rt.InvokeFails.Value() - fail0
	rep.invokeP99 = rt.InvokeLat.P99()
	for _, r := range results {
		d := int64(r.End.Sub(r.Start))
		rep.taskLat = append(rep.taskLat, d)
		rep.taskBusy += d
		rep.attempts += int64(r.Attempts)
	}
	slices.Sort(rep.taskLat)
	if len(results) != shuffleJobs*(shuffleMaps+shuffleReduces) {
		return rep, errors.New("shuffle-graph: jobs did not finish")
	}
	return rep, nil
}

func runShuffle(cfg config) (*outcome, error) {
	in := newShuffleInputs(cfg.seed)
	o := newOutcome()
	var last *shuffleRep
	var makespans []string
	reps, acc, err := repeatSim(cfg, o, "shuffle-graph", func(profile bool, acc *cpuAcc) (*simRep, error) {
		r, err := shuffleOnce(in, o, profile, acc)
		if err != nil {
			return nil, err
		}
		ms := fmt.Sprint(r.makespans)
		if makespans = append(makespans, ms); ms != makespans[0] {
			o.fail("shuffle-graph: makespans %s differ from the first rep's %s", ms, makespans[0])
		}
		last = r
		return &r.simRep, nil
	})
	if err != nil {
		return nil, err
	}
	o.env = append(o.env, fmt.Sprintf("jobs=%d maps=%d reduces=%d input=%dB partitions=%d..%dB compute=%v",
		shuffleJobs, shuffleMaps, shuffleReduces, shuffleInput, shufflePartMin, shufflePartMin+shufflePartSpan-1, shuffleCompute))
	simEndToEnd(o, reps)
	span := make([]float64, len(last.makespans))
	var spanSum int64
	for i, d := range last.makespans {
		span[i] = float64(d) / 1e9
		spanSum += d
	}
	o.note("virt_makespan_s", median(span), "s", fmt.Sprintf("(median of %d jobs)", len(span)))
	if cfg.trace {
		simLayers(o, reps, acc)
		o.layer["faas.invocations"] = float64(last.invokes)
		o.layer["faas.cold_start_frac"] = float64(last.colds) / float64(last.invokes)
		o.layer["faas.invoke_fails"] = float64(last.fails)
		o.layer["faas.invoke_virt_p99_us"] = float64(last.invokeP99) / 1e3
		o.layer["taskgraph.task_virt_p50_ms"] = float64(quantile(last.taskLat, 0.5)) / 1e6
		o.layer["taskgraph.task_virt_p99_ms"] = float64(quantile(last.taskLat, 0.99)) / 1e6
		o.layer["taskgraph.attempts"] = float64(last.attempts)
		o.layer["taskgraph.parallelism"] = float64(last.taskBusy) / float64(spanSum)
		o.layer["taskgraph.makespan_virt_s"] = median(span)
		zeroLayers(o)
	}
	return o, nil
}
