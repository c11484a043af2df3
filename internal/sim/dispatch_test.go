package sim

import (
	"reflect"
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
