// Package sim provides a sequential discrete-event simulation engine.
//
// The engine advances a virtual clock through a queue of timestamped events.
// Simulated activities are written as ordinary Go functions ("processes")
// that run on their own goroutines but execute strictly one at a time: a
// process runs until it parks (Sleep, Wait, Acquire, ...) and only then does
// the next event run. This gives deterministic, race-free simulations with
// natural sequential code.
//
// There is no engine goroutine. Whichever goroutine gives up control runs
// the dispatch loop itself: a process that parks or exits pops the next
// events, runs At/After callbacks inline, and hands control straight to the
// next process (resuming it, or launching its goroutine). That costs one
// goroutine switch per process event, and none when the next event resumes
// the parking process itself. The goroutine that called Run only dispatches
// until the first handoff and then waits until the queue drains or passes
// the RunUntil limit. A callback that panics on a process goroutine has its
// panic caught there and re-raised from Run, on the caller's goroutine.
//
// RunProc runs one process on the calling goroutine instead of a new one:
// the caller parks and dispatches like any process until its start event
// comes up, runs the function, and returns as soon as it does, leaving
// later events queued. A server that maps each request to a process (the
// pcsid daemon) uses it to run the request on the goroutine that read it,
// advancing the clock only by the request's own simulated latency.
//
// Virtual time is completely decoupled from wall-clock time: a Sleep of ten
// simulated minutes costs only one event dispatch.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the simulation epoch.
type Time int64

// Duration re-exports time.Duration; all simulated delays use it.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration since the epoch.
func (t Time) String() string { return Duration(t).String() }

// ErrAborted is delivered (via panic, recovered by the engine) to processes
// that are still parked when the environment shuts down, and returned from
// waits that are abandoned. Processes normally never observe it.
var ErrAborted = errors.New("sim: environment shut down")

// event is a scheduled wake-up. Events with equal times fire in scheduling
// order (seq breaks ties), which keeps runs deterministic. The common cases
// — resuming a parked process and starting a fresh one — are encoded in the
// proc/start fields rather than a closure, so the per-event allocation is
// just the heap slot itself (amortized by the backing array); fn is only
// non-nil for At/After callbacks.
type event struct {
	t     Time
	seq   uint64
	proc  *Proc  // non-nil: resume (or, with start, launch) this process
	start bool   // with proc: first dispatch, launch the goroutine
	fn    func() // engine-context callback; nil when proc is set
}

// eventHeap is a binary min-heap of events ordered by (t, seq), stored by
// value. The sift loops are hand-rolled copies of container/heap's up/down
// — identical comparison order, so the pop sequence is bit-identical to
// the previous heap.Interface implementation — but monomorphic: no
// interface dispatch per comparison and no boxing per push/pop on the
// engine's hottest path.
type eventHeap []event

//pcsi:hotpath
func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

//pcsi:hotpath
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

//pcsi:hotpath
func (h *eventHeap) pop() event {
	q := *h
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the fn/proc references in the dead slot
	q = q[:n]
	*h = q
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return ev
}

func (h eventHeap) peek() *event { return &h[0] }

// Env is a simulation environment: a virtual clock plus an event queue.
// It is not safe for concurrent use from goroutines outside the engine's
// own process discipline.
type Env struct {
	now        Time
	queue      eventHeap
	seq        uint64
	dispatched uint64 // events popped and run, for benchmarking
	// horizon is the latest event time the dispatch loop may run: the
	// RunUntil limit, the end of time for Run, and -1 (nothing) while
	// shutdown aborts parked processes.
	horizon Time
	// done is signalled to the goroutine waiting in Run by the process
	// goroutine whose dispatch loop stopped: the queue drained, passed the
	// horizon, or a callback panicked.
	done     chan struct{}
	panicked any // a callback's recovered panic, re-raised by Run
	// caller is the process RunProc is running on its caller's goroutine,
	// or nil. While it is set, a dispatch loop that stops wakes caller
	// instead of signalling done: caller can never be resumed by an
	// event, so it unwinds (abort is errStranded) and RunProc returns.
	caller *Proc
	// abort, when set, is the panic with which every process resuming
	// from park unwinds: ErrAborted during shutdown, errStranded for a
	// stranded RunProc process.
	abort error
	procs int // live processes
	// Parked processes form an intrusive doubly-linked list in park order
	// (head = oldest), so parking and unparking are O(1) and shutdown still
	// aborts deterministically oldest-first.
	parkedHead *Proc
	parkedTail *Proc
	closed     bool
	running    bool
	seed       int64
	forks      uint64
	rng        *rand.Rand
	obs        any // observer context (e.g. a tracer); opaque to the engine
}

// NewEnv returns a fresh environment whose clock reads zero. The seed fixes
// the environment's random stream; equal seeds give identical runs.
func NewEnv(seed int64) *Env {
	return &Env{
		done: make(chan struct{}),
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Seed returns the seed the environment was created with.
func (e *Env) Seed() int64 { return e.seed }

// Rand returns the environment's shared deterministic random stream.
// Components whose draws must not depend on what else runs in the
// environment should hold their own stream from ForkRand instead.
func (e *Env) Rand() *rand.Rand { return e.rng }

// ForkRand returns a fresh deterministic random stream derived from the
// environment seed, the label, and a per-environment fork counter. Forked
// streams are independent of the shared Rand stream and of each other, so a
// component drawing from its own fork sees the same sequence regardless of
// draw interleaving elsewhere — only the seed and the order of ForkRand
// calls matter.
func (e *Env) ForkRand(label string) *rand.Rand {
	e.forks++
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%d", e.seed, label, e.forks)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// ObserverRand returns a deterministic random stream derived from the
// environment seed and the label only. Unlike ForkRand it does not advance
// the fork counter, so observers (tracers, probes) that may or may not be
// attached draw from it without perturbing any component's ForkRand stream:
// a run behaves identically whether or not it is being observed.
func (e *Env) ObserverRand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00observer\x00%s", e.seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// SetObserverContext attaches an opaque observer (e.g. a tracer) to the
// environment. The engine never inspects it; it exists so cross-cutting
// instrumentation can find its per-environment state without globals.
func (e *Env) SetObserverContext(v any) { e.obs = v }

// ObserverContext returns the value set by SetObserverContext, or nil.
func (e *Env) ObserverContext() any { return e.obs }

// schedule enqueues fn to run at time t (>= now).
//
//pcsi:hotpath
func (e *Env) schedule(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.queue.push(event{t: t, seq: e.seq, fn: fn})
	e.seq++
}

// scheduleProc enqueues a process resume (or, with start, a process launch)
// at time t (>= now). Unlike schedule it captures nothing: the event names
// the process directly, so the engine's hottest operations — Sleep, wake,
// spawn — cost zero closure allocations.
//
//pcsi:hotpath
func (e *Env) scheduleProc(t Time, p *Proc, start bool) {
	if t < e.now {
		t = e.now
	}
	e.queue.push(event{t: t, seq: e.seq, proc: p, start: start})
	e.seq++
}

// At schedules fn to run in engine context at absolute time t.
// fn must not block; use Go for blocking activities.
func (e *Env) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run in engine context d from now.
func (e *Env) After(d Duration, fn func()) { e.schedule(e.now.Add(d), fn) }

// Proc is the handle a process uses to interact with virtual time.
type Proc struct {
	env    *Env
	name   string
	fn     func(p *Proc) // the process body, run by main on first dispatch
	resume chan struct{}
	dead   bool
	span   any // current-span context, maintained by instrumentation

	// Intrusive links in the environment's parked list; nil when running.
	parkedPrev *Proc
	parkedNext *Proc
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// SpanCtx returns the process's current-span context (opaque to the engine;
// the trace package stores its innermost open span here), or nil.
func (p *Proc) SpanCtx() any { return p.span }

// SetSpanCtx replaces the process's current-span context.
func (p *Proc) SetSpanCtx(v any) { p.span = v }

// Go spawns a process. The function starts at the current virtual time but
// is dispatched through the event queue, so a caller inside another process
// keeps running until it parks. Safe to call both before Run and from
// within running processes or event callbacks.
//
//pcsi:hotpath
func (e *Env) Go(name string, fn func(p *Proc)) {
	if e.closed {
		return
	}
	p := &Proc{env: e, name: name, fn: fn, resume: make(chan struct{})}
	e.procs++
	e.scheduleProc(e.now, p, true)
}

// main is the goroutine body of a process: run the user function, then
// tear down in exit. Both are methods rather than closures so a spawn
// allocates nothing beyond the Proc, its resume channel, and the
// goroutine itself.
func (p *Proc) main() {
	defer p.exit()
	p.fn(p)
}

// exit marks the process dead and passes control on: its goroutine runs
// the dispatch loop one last time and ends once another goroutine holds
// control. It is the deferred frame of main, so recover here intercepts
// the ErrAborted panic that shutdown delivers to parked processes.
func (p *Proc) exit() {
	e := p.env
	p.dead = true
	e.procs--
	if r := recover(); r != nil {
		if r != ErrAborted {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}
	if e.dispatch(nil) == stopped {
		e.stop(nil)
	}
}

// park suspends the calling process until its wake-up event runs. The
// process dispatches events itself while it waits: when its own wake-up
// is next it simply returns, without a goroutine switch.
//
//pcsi:hotpath
func (p *Proc) park() {
	e := p.env
	p.parkedPrev = e.parkedTail
	if e.parkedTail != nil {
		e.parkedTail.parkedNext = p
	} else {
		e.parkedHead = p
	}
	e.parkedTail = p
	switch e.dispatch(p) {
	case handedOff:
		<-p.resume
	case stopped:
		if e.stop(p) {
			<-p.resume
		}
	}
	if p.parkedPrev != nil {
		p.parkedPrev.parkedNext = p.parkedNext
	} else {
		e.parkedHead = p.parkedNext
	}
	if p.parkedNext != nil {
		p.parkedNext.parkedPrev = p.parkedPrev
	} else {
		e.parkedTail = p.parkedPrev
	}
	p.parkedPrev, p.parkedNext = nil, nil
	if e.abort != nil {
		panic(e.abort)
	}
}

// stop hands control back after a dispatch loop on self's goroutine (nil
// for an exiting process) stopped, and reports whether self must then
// wait to be resumed. Normally the goroutine waiting in Run is signalled.
// While RunProc runs, its process is woken instead (or, if it is self,
// simply continues) with abort set and the horizon at -1, so it unwinds
// without dispatching anything further. It is kept out of line: park
// runs on every event, stop once per Run.
//
//go:noinline
func (e *Env) stop(self *Proc) bool {
	c := e.caller
	if c == nil {
		e.done <- struct{}{}
		return true
	}
	e.abort = errStranded
	e.horizon = -1
	if c == self {
		return false
	}
	c.resume <- struct{}{}
	return true
}

// wake schedules the parked process p to resume at time t.
//
//pcsi:hotpath
func (e *Env) wake(p *Proc, t Time) {
	e.scheduleProc(t, p, false)
}

// wakeNow schedules p to resume at the current time. Events, resources and
// queues wake their waiters through it; a waiter that RunProc abandoned is
// dead and is never resumed.
func (e *Env) wakeNow(p *Proc) {
	if !p.dead {
		e.wake(p, e.now)
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.wake(p, p.env.now.Add(d))
	p.park()
}

// Yield lets every other runnable activity scheduled for the current instant
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Run drains the event queue, advancing the clock, and returns the final
// time. After the queue drains, any processes still parked (waiting on
// events that will never complete) are aborted. A panic in an At/After
// callback stops the run and is re-raised here, whichever goroutine the
// callback ran on.
func (e *Env) Run() Time { return e.runUntil(-1) }

// RunUntil runs events up to and including time t, then stops without
// aborting parked processes; Run or RunUntil may be called again.
func (e *Env) RunUntil(t Time) Time { return e.runUntil(t) }

// runUntil starts the dispatch loop on the caller's goroutine and, once the
// loop has handed control to a process, waits for the process goroutine
// whose loop stops.
func (e *Env) runUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer e.stopRunning()
	e.horizon = limit
	if limit < 0 {
		e.horizon = math.MaxInt64
	}
	if e.dispatch(nil) == handedOff {
		<-e.done
	}
	if v := e.panicked; v != nil {
		e.panicked = nil
		panic(v)
	}
	if limit < 0 {
		e.shutdown()
	} else if limit > e.now {
		e.now = limit
	}
	return e.now
}

func (e *Env) stopRunning() { e.running = false }

// errStranded unwinds a RunProc process that no event can resume.
var errStranded = errors.New("sim: process stranded")

// RunProc runs fn as a process on the calling goroutine and reports true
// once fn returns. It starts as Go would start it, after every event
// already queued for the current instant, and no goroutine is spawned: the
// caller parks and dispatches like any process. RunProc returns as soon as
// fn does; events still queued stay queued for the next Run or RunProc,
// and the clock reads the instant fn returned.
//
// If dispatch stops while fn is parked, fn can never resume: it is unwound
// and RunProc returns false. Dispatch stops when the queue drains, or when
// an At/After callback panics; that panic is re-raised from RunProc, as
// Run re-raises it. fn's deferred calls run with dispatch stopped, and as
// under shutdown one that parks again unwinds at once. A panic in fn
// itself propagates unchanged. RunProc on an environment that Run has
// shut down returns false without running fn.
func (e *Env) RunProc(name string, fn func(p *Proc)) (ok bool) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	if e.closed {
		return false
	}
	e.running = true
	e.horizon = math.MaxInt64
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.procs++
	e.caller = p
	defer func() {
		p.dead = true
		e.procs--
		e.caller = nil
		e.running = false
		if e.abort != errStranded {
			return // fn returned, or panicked on its own
		}
		e.abort = nil
		if r := recover(); r != nil && r != errStranded {
			panic(r)
		}
		ok = false // even if fn recovered the unwind and returned
		e.forget(p)
		if v := e.panicked; v != nil {
			e.panicked = nil
			panic(v)
		}
	}()
	e.scheduleProc(e.now, p, false)
	p.park()
	fn(p)
	return true
}

// forget drops the queued resumes of p, a process RunProc abandoned while
// events were still queued (a callback panicked). The survivors are pushed
// back into the same array: each push writes only slots already read.
func (e *Env) forget(p *Proc) {
	old := e.queue
	e.queue = old[:0]
	for _, ev := range old {
		if ev.proc != p {
			e.queue.push(ev)
		}
	}
	clear(old[len(e.queue):])
}

// handoff is how a dispatch loop ended.
type handoff uint8

const (
	resumedSelf handoff = iota // the next event resumes the dispatching process
	handedOff                  // another goroutine now holds control
	stopped                    // queue drained or past the horizon, or a callback panicked
)

// dispatch is the dispatch loop, run by whichever goroutine gives up
// control: self is the parking process, or nil for an exiting process and
// for Run's caller. It pops the earliest event, advances the clock and
// runs it. Callbacks run inline; a process event ends the loop by handing
// control to that process, unless it is self.
//
//pcsi:hotpath
func (e *Env) dispatch(self *Proc) handoff {
	for len(e.queue) > 0 && e.queue.peek().t <= e.horizon {
		ev := e.queue.pop()
		e.now = ev.t
		e.dispatched++
		switch {
		case ev.proc == nil:
			if !e.callback(ev.fn) {
				return stopped
			}
		case ev.proc == self:
			return resumedSelf
		case ev.start:
			go ev.proc.main()
			return handedOff
		default:
			ev.proc.resume <- struct{}{}
			return handedOff
		}
	}
	return stopped
}

// callback runs an At/After callback and reports whether it returned
// normally. A panic is kept in e.panicked for runUntil to re-raise: the
// loop may be running on a process goroutine, where it would otherwise end
// the program instead of reaching Run's caller.
func (e *Env) callback(fn func()) bool {
	defer e.catchPanic()
	fn()
	return true
}

func (e *Env) catchPanic() {
	if r := recover(); r != nil {
		e.panicked = r
	}
}

// shutdown aborts every parked process, oldest park first. Each resumed
// process removes itself from the parked list (in park) before it panics
// with ErrAborted; with the horizon at -1 its dispatch loop runs nothing
// and hands control straight back, even if a deferred function sleeps.
func (e *Env) shutdown() {
	e.closed = true
	e.abort = ErrAborted
	e.horizon = -1
	for e.parkedHead != nil {
		p := e.parkedHead
		p.resume <- struct{}{}
		<-e.done
	}
}

// Pending reports the number of events waiting in the queue.
func (e *Env) Pending() int { return len(e.queue) }

// Dispatched reports the total number of events popped from the queue and
// run since the environment was created. The engine benchmark divides
// wall-clock time and allocation counts by it.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// LiveProcs reports the number of processes that have started and not yet
// exited (including parked ones).
func (e *Env) LiveProcs() int { return e.procs }
