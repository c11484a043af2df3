package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A callback that panics while it runs on a process goroutine (here the
// sleeper's, which dispatches the t=15 callback when it parks at t=10) must
// surface from Run on the caller's goroutine, where it can be recovered,
// and leave the environment runnable.
func TestCallbackPanicReachesRun(t *testing.T) {
	e := NewEnv(1)
	never := e.NewEvent()
	for i := 0; i < 3; i++ {
		e.Go("parked", func(p *Proc) { p.Wait(never) }) //nolint:errcheck
	}
	woke := false
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(10)
		woke = true
	})
	e.At(15, func() { panic("boom") })
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want boom", got)
	}
	if e.Now() != 15 {
		t.Fatalf("clock at %v after the panic, want 15", e.Now())
	}
	if e.LiveProcs() != 4 {
		t.Fatalf("LiveProcs = %d after the panic, want 4", e.LiveProcs())
	}
	e.Run()
	if !woke || e.Now() != 20 {
		t.Fatalf("second Run: woke=%v now=%v, want sleeper done at 20", woke, e.Now())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the second Run, want 0", e.LiveProcs())
	}
}

// A panic in a callback that runs on Run's own goroutine (before any
// process has been launched) surfaces the same way.
func TestCallbackPanicOnRunGoroutine(t *testing.T) {
	e := NewEnv(1)
	e.At(5, func() { panic("early") })
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != "early" {
		t.Fatalf("recovered %v from Run, want early", got)
	}
}

// pingPong starts two processes that hand a ball back and forth through
// events: each round one side wakes, logs the time, sleeps 3 and wakes the
// other, so every round resumes a different goroutine.
func pingPong(e *Env, rounds int, log *[]string) {
	balls := [2]*Event{e.NewEvent(), e.NewEvent()}
	for side, name := range []string{"ping", "pong"} {
		side, name := side, name
		e.Go(name, func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Wait(balls[side]) //nolint:errcheck
				balls[side] = e.NewEvent()
				*log = append(*log, name+"@"+p.Now().String())
				p.Sleep(3)
				balls[1-side].Complete(nil)
			}
		})
	}
	balls[0].Complete(nil)
}

func TestRunUntilWithHandoffs(t *testing.T) {
	var want []string
	ref := NewEnv(1)
	pingPong(ref, 10, &want)
	ref.Run()

	var got []string
	e := NewEnv(1)
	pingPong(e, 10, &got)
	if now := e.RunUntil(12); now != 12 {
		t.Fatalf("RunUntil(12) = %v", now)
	}
	// Events at exactly the limit run: 0, 3, 6, 9 and 12.
	if !reflect.DeepEqual(got, want[:5]) {
		t.Fatalf("after RunUntil(12): %v, want %v", got, want[:5])
	}
	if now := e.RunUntil(20); now != 20 {
		t.Fatalf("RunUntil(20) = %v", now)
	}
	if !reflect.DeepEqual(got, want[:7]) {
		t.Fatalf("after RunUntil(20): %v, want %v", got, want[:7])
	}
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d between RunUntil calls, want 2", e.LiveProcs())
	}
	e.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after Run: %v, want %v", got, want)
	}
	if e.Now() != ref.Now() || e.Dispatched() != ref.Dispatched() {
		t.Fatalf("split run ended at %v after %d events, single run at %v after %d",
			e.Now(), e.Dispatched(), ref.Now(), ref.Dispatched())
	}
}

// Yield and Sleep(0) resume the parking process from its own dispatch loop,
// but only after everything scheduled earlier for the same instant.
func TestSelfResumeKeepsSameInstantFIFO(t *testing.T) {
	e := NewEnv(1)
	var seq []string
	e.Go("a", func(p *Proc) {
		seq = append(seq, "a1")
		e.At(p.Now(), func() { seq = append(seq, "cb") })
		p.Yield()
		seq = append(seq, "a2")
		p.Sleep(0)
		seq = append(seq, "a3")
	})
	e.Go("b", func(p *Proc) {
		seq = append(seq, "b1")
		p.Yield()
		seq = append(seq, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "cb", "a2", "b2", "a3"}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("seq = %v, want %v", seq, want)
	}

	// Alone, a yielding process resumes itself: each Yield is one event and
	// the clock does not move.
	solo := NewEnv(1)
	solo.Go("solo", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Yield()
		}
	})
	solo.Run()
	if solo.Dispatched() != 101 || solo.Now() != 0 {
		t.Fatalf("solo: %d events, clock %v; want 101 events at 0", solo.Dispatched(), solo.Now())
	}
}

// Shutdown aborts parked processes oldest park first. A process that
// sleeps in a deferred function while being aborted parks again at the
// back of the list and is aborted again in turn; no event runs meanwhile.
func TestShutdownAbortsOldestFirst(t *testing.T) {
	e := NewEnv(1)
	never := e.NewEvent()
	var order []string
	wait := func(p *Proc) {
		defer func() { order = append(order, p.Name()) }()
		p.Wait(never) //nolint:errcheck
	}
	// Processes start, and so park, in spawn order.
	e.Go("p0", wait)
	e.Go("sleepy", func(p *Proc) {
		defer func() {
			order = append(order, "sleepy-defer")
			p.Sleep(5)
			order = append(order, "sleepy-after-sleep") // must not run
		}()
		p.Wait(never) //nolint:errcheck
	})
	e.Go("p2", wait)
	e.Run()
	want := []string{"p0", "sleepy-defer", "p2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("abort order = %v, want %v", order, want)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after shutdown, want 0", e.LiveProcs())
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v during shutdown", e.Now())
	}
}

// BenchmarkHandoff measures a ping-pong between two processes whose sleeps
// interleave, so every event hands control to the other goroutine. One op
// is one round: two events, two handoffs.
func BenchmarkHandoff(b *testing.B) {
	e := NewEnv(1)
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(2)
		}
	})
	e.Go("pong", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < b.N; i++ {
			p.Sleep(2)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// procGoroutines counts the goroutines running a process's code. It reads
// stacks rather than runtime.NumGoroutine, which also counts the runtime's
// finalizer goroutine while that runs a finalizer.
func procGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sim.(*Proc).") {
			n++
		}
	}
	return n
}

// checkSettled fails the test unless live processes are live, none is left
// parked when live is 0, and no more process goroutines exist than base.
func checkSettled(t *testing.T, e *Env, live int, base int) {
	t.Helper()
	if e.LiveProcs() != live {
		t.Fatalf("LiveProcs = %d, want %d", e.LiveProcs(), live)
	}
	if live == 0 && e.parkedHead != nil {
		t.Fatalf("process %q left on the parked list", e.parkedHead.name)
	}
	// An exiting process's goroutine may still be winding down.
	for i := 0; procGoroutines() > base && i < 1000; i++ {
		runtime.Gosched()
	}
	if n := procGoroutines(); n > base {
		t.Fatalf("%d process goroutines, want at most %d", n, base)
	}
}

// A RunProc process that waits on an event nobody will complete is
// stranded when the queue drains, whether the drain happens on its own
// dispatch loop or on another process's. RunProc returns false, the
// process's deferred calls run without dispatching anything (as under
// shutdown, a Sleep there unwinds again), and nothing
// is left parked or running. Completing the event later must not try to
// resume the abandoned process.
func TestRunProcStrandedByDrainedQueue(t *testing.T) {
	base := procGoroutines()
	e := NewEnv(1)
	never := e.NewEvent()
	var deferred []Time
	body := func(helper bool) func(p *Proc) {
		return func(p *Proc) {
			defer func() {
				deferred = append(deferred, p.Now())
				p.Sleep(50) // unwinds again: dispatch has stopped
				t.Error("Sleep returned in a stranded process")
			}()
			if helper {
				e.Go("helper", func(h *Proc) { h.Sleep(7) })
			}
			p.Sleep(2)
			p.Wait(never) //nolint:errcheck
			t.Error("stranded process resumed")
		}
	}
	if e.RunProc("alone", body(false)) {
		t.Fatal("RunProc stranded on its own loop returned true")
	}
	checkSettled(t, e, 0, base)
	if e.RunProc("helped", body(true)) {
		t.Fatal("RunProc stranded by a helper's exit returned true")
	}
	checkSettled(t, e, 0, base)
	if want := []Time{2, 9}; !reflect.DeepEqual(deferred, want) {
		t.Fatalf("deferred calls ran at %v, want %v", deferred, want)
	}
	if !e.RunProc("completer", func(p *Proc) { never.Complete(nil); p.Sleep(1) }) {
		t.Fatal("RunProc completing the stranded processes' event returned false")
	}
	if e.Pending() != 0 || e.Now() != 10 {
		t.Fatalf("after completer: %d events pending, clock %v; want 0 at 10", e.Pending(), e.Now())
	}
	checkSettled(t, e, 0, base)
}

// A callback that panics while the RunProc process is parked, on another
// process's dispatch loop, unwinds the process and reaches RunProc's
// caller. The abandoned process's queued wake-up is dropped, so the other
// process still finishes in a later Run.
func TestRunProcCallbackPanicReachesCaller(t *testing.T) {
	base := procGoroutines()
	e := NewEnv(1)
	helperDone := false
	e.Go("helper", func(p *Proc) {
		p.Sleep(3)
		p.Sleep(10)
		helperDone = true
	})
	e.At(5, func() { panic("boom") })
	unwound := false
	got := func() (v any) {
		defer func() { v = recover() }()
		e.RunProc("rpc", func(p *Proc) {
			defer func() { unwound = true }()
			p.Sleep(10)
			t.Error("process resumed after the panic")
		})
		return nil
	}()
	if got != "boom" || !unwound {
		t.Fatalf("recovered %v (unwound %v), want boom after unwinding", got, unwound)
	}
	if e.Now() != 5 || e.LiveProcs() != 1 || e.parkedHead == nil || e.parkedHead.name != "helper" {
		t.Fatalf("after the panic: clock %v, %d live; want 5 with only the helper parked", e.Now(), e.LiveProcs())
	}
	e.Run()
	if !helperDone || e.Now() != 13 {
		t.Fatalf("after Run: helper done %v at %v, want done at 13", helperDone, e.Now())
	}
	checkSettled(t, e, 0, base)

	// The same on the RunProc process's own loop, before fn has started.
	e2 := NewEnv(1)
	e2.At(0, func() { panic("early") })
	got = func() (v any) {
		defer func() { v = recover() }()
		e2.RunProc("rpc", func(p *Proc) { t.Error("fn ran after the panic") })
		return nil
	}()
	if got != "early" || e2.Pending() != 0 || e2.LiveProcs() != 0 {
		t.Fatalf("recovered %v with %d pending, %d live; want early, 0, 0", got, e2.Pending(), e2.LiveProcs())
	}
}

// RunProc returns as soon as its process does. What the process started
// stays queued, and a later Run drains it.
func TestRunProcLeavesLaterEventsQueued(t *testing.T) {
	e := NewEnv(1)
	var log []string
	ok := e.RunProc("rpc", func(p *Proc) {
		e.Go("background", func(b *Proc) {
			b.Sleep(100)
			log = append(log, "background@"+b.Now().String())
		})
		e.After(50, func() { log = append(log, "callback@"+e.Now().String()) })
		p.Sleep(5)
	})
	if !ok || e.Now() != 5 || len(log) != 0 || e.Pending() != 2 || e.LiveProcs() != 1 {
		t.Fatalf("after RunProc: ok %v, clock %v, log %v, %d pending, %d live",
			ok, e.Now(), log, e.Pending(), e.LiveProcs())
	}
	e.Run()
	want := []string{"callback@50ns", "background@100ns"}
	if !reflect.DeepEqual(log, want) || e.Now() != 100 {
		t.Fatalf("after Run: log %v at %v, want %v at 100ns", log, e.Now(), want)
	}
}

// A RunProc process interleaves with same-instant callbacks and processes
// exactly as the same body spawned with Go does.
func TestRunProcSameInstantOrderMatchesGo(t *testing.T) {
	scene := func(e *Env, log *[]string) func(p *Proc) {
		note := func(s string) { *log = append(*log, s+"@"+e.Now().String()) }
		e.Go("early", func(p *Proc) {
			note("early1")
			p.Yield()
			note("early2")
			p.Sleep(2)
			note("early3")
		})
		e.At(0, func() { note("cb0") })
		e.At(2, func() { note("cb2") })
		return func(p *Proc) {
			note("rpc1")
			e.At(p.Now(), func() { note("cb-now") })
			e.Go("child", func(c *Proc) {
				note("child1")
				c.Sleep(2)
				note("child2")
			})
			p.Yield()
			note("rpc2")
			p.Sleep(2)
			note("rpc3")
		}
	}
	var want []string
	ref := NewEnv(1)
	ref.Go("rpc", scene(ref, &want))
	ref.Run()

	var got []string
	e := NewEnv(1)
	if !e.RunProc("rpc", scene(e, &got)) {
		t.Fatal("RunProc returned false")
	}
	n := len(got)
	if n == 0 || got[n-1] != "rpc3@2ns" || !reflect.DeepEqual(got, want[:n]) {
		t.Fatalf("at RunProc's return: %v, want a prefix of %v ending at rpc3", got, want)
	}
	e.Run()
	if !reflect.DeepEqual(got, want) || e.Dispatched() != ref.Dispatched() || e.Now() != ref.Now() {
		t.Fatalf("RunProc then Run: %v (%d events, end %v); Go then Run: %v (%d events, end %v)",
			got, e.Dispatched(), e.Now(), want, ref.Dispatched(), ref.Now())
	}
}
