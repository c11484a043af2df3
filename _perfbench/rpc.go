package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pcsinet"
	"repro/internal/wire"
)

// pcsid-rpc: the real pcsid daemon over loopback TCP, driven by this
// process as a closed loop over one connection. The generator is the only
// writer, so it knows the exact value every get must return.
const (
	rpcObjects  = 1024
	rpcObjSize  = 1024
	rpcPutFrac  = 0.2
	rpcSegments = 5 // each on a fresh daemon; traced runs use three: untraced, spans, profile
	rpcWarmup   = 250 * time.Millisecond
)

// rpcSegment is what one segment measures.
type rpcSegment struct {
	setupS, wallS  float64
	getLat, putLat []int64 // wall ns
	writeNS        int64   // Σ time in WriteFrame (traced segment)
	waitNS         int64   // Σ time in ReadFrame (traced segment)
	rpcs           int64
	genCPU         time.Duration
	allocs         uint64 // heap allocations in this process while driving
	server         procStats
	virt           time.Duration // server virtual clock advance
	sample         []*wire.Message
	// The profiled segment's in-process server exposes its deployment's
	// counters too.
	cloud         *core.Cloud
	before, after simCounters
}

func (s *rpcSegment) rate() float64 { return float64(s.rpcs) / s.wallS }

// daemon is a running pcsid child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	output sync.WaitGroup
}

// startDaemon starts pcsid on a port the OS picks and waits for the
// startup line that names it.
func startDaemon(path string, seed int64) (*daemon, error) {
	d := &daemon{cmd: exec.Command(path, "-addr", "127.0.0.1:0", "-seed", strconv.FormatInt(seed, 10))}
	d.cmd.Stderr = os.Stderr
	// The daemon dies with this process even if it is killed before stop.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pcsid: %w", err)
	}
	addr := make(chan string, 1)
	d.output.Add(1)
	go func() {
		defer d.output.Done()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			const prefix = "pcsid serving PCSI on "
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
		io.Copy(io.Discard, out) //nolint:errcheck // drains until the process exits
	}()
	select {
	case a, ok := <-addr:
		if ok {
			d.addr = a
			return d, nil
		}
		d.stop()
		return nil, errors.New("pcsid exited before serving")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("pcsid did not start within 30s")
	}
}

// stop interrupts the daemon, as an operator would, and waits for it to
// exit; it is killed if it does not within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // it may already have exited
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status after an interrupt is not informative
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-done
	}
	d.output.Wait()
}

// procStats is a process's resource use read from /proc: totals at one
// instant, or the difference between two reads.
type procStats struct {
	cpu      time.Duration
	syscalls int64
	hwmMB    float64
}

// readProc reads a process's CPU time (utime+stime, in USER_HZ=100
// ticks), read+write syscall counts and peak resident set.
func readProc(pid int) (procStats, error) {
	var p procStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return p, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return p, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(io)+string(status), "\n") {
		k, v, _ := strings.Cut(line, ":")
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		switch k {
		case "syscr", "syscw":
			p.syscalls += n
		case "VmHWM":
			p.hwmMB = float64(n) / 1024
		}
	}
	return p, nil
}

// rpcConn is the generator's connection and the objects it wrote.
type rpcConn struct {
	cl     *pcsinet.Client
	raw    net.Conn // frame-level access for traced segments
	tokens []string
	last   [][]byte // last value put to each token
	seq    uint64
	rng    rng
}

// rpcValue is a 1 KiB payload naming the object and write sequence.
func rpcValue(obj int, seq uint64, filler []byte) []byte {
	b := append([]byte(nil), filler...)
	binary.LittleEndian.PutUint64(b[0:], uint64(obj))
	binary.LittleEndian.PutUint64(b[8:], seq)
	return b
}

// tracedCall is one request/response exchange done with the protocol's
// own frame functions, timing the write and the wait for the reply.
func (c *rpcConn) tracedCall(req *wire.Message, seg *rpcSegment) (*wire.Message, error) {
	t0 := time.Now()
	if err := pcsinet.WriteFrame(c.raw, req); err != nil {
		return nil, err
	}
	t1 := time.Now()
	resp, err := pcsinet.ReadFrame(c.raw)
	t2 := time.Now()
	seg.writeNS += int64(t1.Sub(t0))
	seg.waitNS += int64(t2.Sub(t1))
	if err != nil {
		return nil, err
	}
	if len(seg.sample) < 512 {
		seg.sample = append(seg.sample, req, resp)
	}
	return resp, pcsinet.RespError(resp)
}

// rpcMode selects how a segment drives the server.
type rpcMode int

const (
	rpcPlain   rpcMode = iota // pcsinet.Client, the public client
	rpcTraced                 // frame-level calls with write/wait spans
	rpcProfile                // in-process server under the CPU profiler
)

// runSegment boots a server, preloads the objects through the generator's
// connection (set-up), then drives the closed loop for d.
func runSegment(cfg config, o *outcome, mode rpcMode, d time.Duration, filler []byte, acc *cpuAcc) (*rpcSegment, error) {
	seg := &rpcSegment{}
	t0 := time.Now()
	var addr string
	var dm *daemon
	if mode == rpcProfile {
		opts := core.DefaultOptions()
		opts.Seed = cfg.seed
		seg.cloud = core.New(opts)
		srv := pcsinet.NewServer(seg.cloud)
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close() //nolint:errcheck
		addr = a
	} else {
		var err error
		if dm, err = startDaemon(cfg.pcsid, cfg.seed); err != nil {
			return nil, err
		}
		defer dm.stop()
		addr = dm.addr
	}

	cl, err := pcsinet.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close() //nolint:errcheck
	c := &rpcConn{cl: cl, rng: newRNG(cfg.seed, 1<<42)}
	if mode == rpcTraced {
		// The traced frames go over a second connection; the client's own
		// connection only carries the preload and then idles.
		if c.raw, err = net.Dial("tcp", addr); err != nil {
			return nil, err
		}
		defer c.raw.Close() //nolint:errcheck
	}
	for obj := 0; obj < rpcObjects; obj++ {
		tok, err := cl.Create("regular", "linearizable", "", false)
		if err != nil {
			return nil, fmt.Errorf("preload create: %w", err)
		}
		v := rpcValue(obj, 0, filler)
		if err := cl.Put(tok, v); err != nil {
			return nil, fmt.Errorf("preload put: %w", err)
		}
		c.tokens = append(c.tokens, tok)
		c.last = append(c.last, v)
	}
	seg.setupS = secondsSince(t0)

	// A short unrecorded warm-up lets the fresh daemon's heap and the
	// connection settle; its calls are still checked.
	driveConn(c, mode, time.Now().Add(rpcWarmup), filler, &rpcSegment{}, o)

	var before procStats
	var virt0 time.Duration
	if dm != nil {
		if before, err = readProc(dm.cmd.Process.Pid); err != nil {
			return nil, fmt.Errorf("read /proc of pcsid: %w", err)
		}
		if virt0, err = serverClock(cl); err != nil {
			return nil, err
		}
	}
	var prof *profiler
	if mode == rpcProfile {
		seg.before = readSim(seg.cloud)
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	cpu0, allocs0 := processCPU(), readRuntime().allocs
	start := time.Now()
	driveConn(c, mode, start.Add(d), filler, seg, o)
	seg.wallS = secondsSince(start)
	seg.genCPU = processCPU() - cpu0
	seg.allocs = readRuntime().allocs - allocs0
	if prof != nil {
		if err := prof.stop(acc); err != nil {
			return nil, err
		}
		seg.after = readSim(seg.cloud)
	}
	if dm != nil {
		after, err := readProc(dm.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("read /proc of pcsid: %w", err)
		}
		virt1, err := serverClock(cl)
		if err != nil {
			return nil, err
		}
		seg.server = procStats{cpu: after.cpu - before.cpu, syscalls: after.syscalls - before.syscalls, hwmMB: after.hwmMB}
		seg.virt = virt1 - virt0
	}
	slices.Sort(seg.getLat)
	slices.Sort(seg.putLat)
	return seg, nil
}

// serverClock reads the deployment's virtual clock through the stats op.
func serverClock(cl *pcsinet.Client) (time.Duration, error) {
	st, err := cl.Stats()
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return time.ParseDuration(st["virtual_now"])
}

// driveConn is the closed loop: 80% gets of one of the objects, each
// checked against the last value put there, and 20% puts of a fresh value.
// It stops at deadline or at the first call that fails.
func driveConn(c *rpcConn, mode rpcMode, deadline time.Time, filler []byte, seg *rpcSegment, o *outcome) {
	for time.Now().Before(deadline) {
		i := c.rng.intn(len(c.tokens))
		o.attempted++
		if c.rng.float() < rpcPutFrac {
			c.seq++
			v := rpcValue(i, c.seq, filler)
			t := time.Now()
			var err error
			if mode == rpcTraced {
				_, err = c.tracedCall(&wire.Message{Op: pcsinet.OpPut, Key: c.tokens[i], Body: v}, seg)
			} else {
				err = c.cl.Put(c.tokens[i], v)
			}
			lat := int64(time.Since(t))
			if err != nil {
				o.fail("pcsid-rpc: put object %d: %v", i, err)
				return
			}
			seg.putLat = append(seg.putLat, lat)
			seg.rpcs++
			c.last[i] = v
			continue
		}
		t := time.Now()
		var got []byte
		var err error
		if mode == rpcTraced {
			var resp *wire.Message
			if resp, err = c.tracedCall(&wire.Message{Op: pcsinet.OpGet, Key: c.tokens[i]}, seg); err == nil {
				got = resp.Body
			}
		} else {
			got, err = c.cl.Get(c.tokens[i])
		}
		lat := int64(time.Since(t))
		if err != nil {
			o.fail("pcsid-rpc: get object %d: %v", i, err)
			return
		}
		seg.getLat = append(seg.getLat, lat)
		seg.rpcs++
		if !bytes.Equal(got, c.last[i]) {
			o.fail("pcsid-rpc: get object %d returned a value other than the last put", i)
		}
	}
}

// timeCodec times wire.BinaryCodec on the messages a traced segment sent
// and received, returning ns per encode, ns per decode and mean encoded
// bytes per message.
func timeCodec(msgs []*wire.Message) (encNS, decNS, bytesPer float64, err error) {
	var codec wire.BinaryCodec
	enc := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		if enc[i], err = codec.Encode(m); err != nil {
			return 0, 0, 0, err
		}
		total += len(enc[i])
	}
	const rounds = 200
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			if _, err = codec.Encode(m); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	encNS = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(msgs))
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range enc {
			if _, err = codec.Decode(b); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	decNS = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(msgs))
	return encNS, decNS, float64(total) / float64(len(msgs)), nil
}

func runRPC(cfg config) (*outcome, error) {
	o := newOutcome()
	filler := make([]byte, rpcObjSize)
	r := newRNG(cfg.seed, 1<<43)
	for i := range filler {
		filler[i] = byte(r.next())
	}
	modes := make([]rpcMode, rpcSegments)
	if cfg.trace {
		modes = []rpcMode{rpcPlain, rpcTraced, rpcProfile}
	}
	d := time.Duration(cfg.seconds / float64(len(modes)) * float64(time.Second))
	acc := &cpuAcc{}
	var segs []*rpcSegment
	for _, m := range modes {
		seg, err := runSegment(cfg, o, m, d, filler, acc)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}

	var plain []*rpcSegment
	for i, s := range segs {
		if modes[i] == rpcPlain {
			plain = append(plain, s)
		}
	}
	// Wall-clock values are medians over the untraced segments, so one
	// disturbed segment does not move them.
	var setups, rates, mems, p50s, p90s, p99s, put90s, put99s []float64
	var rpcs, nGets, nPuts int64
	var genCPU time.Duration
	for _, s := range plain {
		setups = append(setups, s.setupS)
		rates = append(rates, s.rate())
		mems = append(mems, s.server.hwmMB)
		p50s = append(p50s, us(quantile(s.getLat, 0.5)))
		p90s = append(p90s, us(quantile(s.getLat, 0.9)))
		p99s = append(p99s, us(quantile(s.getLat, 0.99)))
		put90s = append(put90s, us(quantile(s.putLat, 0.9)))
		put99s = append(put99s, us(quantile(s.putLat, 0.99)))
		rpcs += s.rpcs
		nGets += int64(len(s.getLat))
		nPuts += int64(len(s.putLat))
		genCPU += s.genCPU
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["get_p50_us"] = median(p50s)
	o.e2e["get_p90_us"] = median(p90s)
	o.e2e["put_p90_us"] = median(put90s)
	o.e2e["mem_mb"] = median(mems)
	genPerRPC := float64(genCPU.Microseconds()) / float64(rpcs)
	o.env = append(o.env,
		fmt.Sprintf("connections=1 objects=%d value=%dB put_frac=%g segments=%d segment=%v warmup=%v generator=1 process",
			rpcObjects, rpcObjSize, rpcPutFrac, len(modes), d, rpcWarmup),
		fmt.Sprintf("gen_cpu_us_per_rpc=%.3f", genPerRPC),
		fmt.Sprintf("rpc_per_s_by_segment=%.0f", rates),
		fmt.Sprintf("get_p99_us_by_segment=%.0f put_p99_us_by_segment=%.0f", p99s, put99s))
	per := fmt.Sprintf("(median of %d segments)", len(plain))
	gets, puts := fmt.Sprintf("%s n=%d", per, nGets), fmt.Sprintf("%s n=%d", per, nPuts)
	o.note("setup_s", o.e2e["setup_s"], "s", fmt.Sprintf("(median of %d daemon boots + preload)", len(plain)))
	o.note("rpc_per_s", o.e2e["ops_per_s"], "RPC/s", per)
	o.note("rpc_get_p50_us", o.e2e["get_p50_us"], "us", gets)
	o.note("rpc_get_p90_us", o.e2e["get_p90_us"], "us", gets)
	o.note("rpc_get_p99_us", median(p99s), "us", gets)
	o.note("rpc_put_p90_us", o.e2e["put_p90_us"], "us", puts)
	o.note("rpc_put_p99_us", median(put99s), "us", puts)
	o.note("pcsid_peak_rss_mb", o.e2e["mem_mb"], "MiB", "(median VmHWM)")

	if cfg.trace {
		t := segs[1]
		n := float64(t.rpcs)
		o.layer["pcsinet.server_cpu_us_per_rpc"] = float64(t.server.cpu.Microseconds()) / n
		o.layer["pcsinet.server_syscalls_per_rpc"] = float64(t.server.syscalls) / n
		o.layer["pcsinet.server_virt_ms_per_rpc"] = float64(t.virt.Nanoseconds()) / 1e6 / n
		o.layer["pcsinet.client_write_us"] = float64(t.writeNS) / 1e3 / n
		o.layer["pcsinet.client_wait_us"] = float64(t.waitNS) / 1e3 / n
		enc, dec, b, err := timeCodec(t.sample)
		if err != nil {
			return nil, err
		}
		o.layer["wire.encode_ns"] = enc
		o.layer["wire.decode_ns"] = dec
		o.layer["wire.bytes_per_rpc"] = 2*b + 8 // request + response + two length prefixes
		o.layer["gen.cpu_us_per_rpc"] = float64(t.genCPU.Microseconds()) / n
		o.layer["tracing.throughput_ratio"] = t.rate() / segs[0].rate()
		// The in-process server's deployment and runtime counters, per RPC
		// of the profiled segment.
		p := segs[2]
		pn := float64(p.rpcs)
		o.layer["sim.events_per_op"] = float64(p.after.events-p.before.events) / pn
		o.layer["sim.ns_per_event"] = p.wallS * 1e9 / float64(p.after.events-p.before.events)
		o.layer["core.bytes_moved_per_op"] = float64(p.after.bytesMoved-p.before.bytesMoved) / pn
		o.layer["core.cache_hits"] = float64(p.after.cacheHits - p.before.cacheHits)
		o.layer["consistency.lin_stale_reads"] = float64(p.cloud.Group().LinStaleReads)
		o.layer["consistency.conflicts"] = float64(p.cloud.Group().Conflicts)
		o.layer["simnet.msgs_per_op"] = float64(p.after.msgs-p.before.msgs) / pn
		o.layer["simnet.bytes_per_op"] = float64(p.after.netBytes-p.before.netBytes) / pn
		runtimeLayers(o, p.before.rt, p.after.rt, p.rpcs)
		// Here the generator and the server share one Go runtime. The
		// generator's own allocations per RPC, measured in the untraced
		// segment where the server is the pcsid process, are taken out, so
		// runtime.allocs_per_op is the server's. GC work cannot be split by
		// who allocated: runtime.gc_cpu_frac stays client plus server.
		genAllocs := float64(segs[0].allocs) / float64(segs[0].rpcs)
		o.layer["runtime.allocs_per_op"] = float64(p.allocs)/pn - genAllocs
		o.note("gen_allocs_per_rpc", genAllocs, "count", "(untraced segment, server out of process)")
		if p.cloud.Group().LinStaleReads != 0 {
			o.fail("pcsid-rpc: %d stale linearizable reads", p.cloud.Group().LinStaleReads)
		}
		acc.record(o)
		zeroLayers(o)
	}
	return o, nil
}
