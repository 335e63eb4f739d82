package sched_test

import (
	"math"
	"syscall"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/sched"
)

// --- virtual clock ---------------------------------------------------

func TestVirtualClockJumps(t *testing.T) {
	opts := sched.DefaultOptions()
	main := seq(sched.Sleep(time.Hour), sched.Sleep(30*time.Minute))
	start := time.Now()
	rt := sched.NewRT(opts)
	if _, err := rt.RunMain(main); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("virtual sleeps took %v of wall time", wall)
	}
	if got := rt.Now(); got != int64(time.Hour+30*time.Minute) {
		t.Fatalf("virtual clock at %v, want 1h30m", time.Duration(got))
	}
	if rt.Stats().TimeAdvances != 2 {
		t.Fatalf("TimeAdvances = %d", rt.Stats().TimeAdvances)
	}
}

func TestVirtualClockOrdersTimers(t *testing.T) {
	rt := sched.NewRT(sched.DefaultOptions())
	main := seq(
		sched.Bind(sched.Fork(seq(sched.Sleep(3*time.Second), sched.PutChar('c'))), drop),
		sched.Bind(sched.Fork(seq(sched.Sleep(1*time.Second), sched.PutChar('a'))), drop),
		sched.Bind(sched.Fork(seq(sched.Sleep(2*time.Second), sched.PutChar('b'))), drop),
		sched.Sleep(10*time.Second),
	)
	if _, err := rt.RunMain(main); err != nil {
		t.Fatal(err)
	}
	if rt.Output() != "abc" {
		t.Fatalf("timer order %q", rt.Output())
	}
}

// Sleepers with one deadline wake in the order they armed, not in
// thread-id order: 'a' (the lower id) naps first and so arms its 10 ms
// deadline after 'b' has.
func TestVirtualClockEqualDeadlinesWakeInArmOrder(t *testing.T) {
	rt := sched.NewRT(sched.DefaultOptions())
	main := seq(
		sched.Bind(sched.Fork(seq(sched.Sleep(time.Millisecond), sched.Sleep(9*time.Millisecond), sched.PutChar('a'))), drop),
		sched.Bind(sched.Fork(seq(sched.Sleep(10*time.Millisecond), sched.PutChar('b'))), drop),
		sched.Sleep(time.Second),
	)
	if _, err := rt.RunMain(main); err != nil {
		t.Fatal(err)
	}
	if rt.Output() != "ba" {
		t.Fatalf("wake order %q, want arm order \"ba\"", rt.Output())
	}
}

func drop(any) sched.Node { return sched.ReturnUnit() }

// A sleep past the end of the clock saturates: the clock jumps to its
// last instant instead of wrapping round to a negative reading.
func TestSleepPastTheEndOfTheClock(t *testing.T) {
	var readings []int64
	now := sched.Bind(sched.Now(), func(v any) sched.Node {
		readings = append(readings, v.(int64))
		return sched.ReturnUnit()
	})
	rt := sched.NewRT(sched.DefaultOptions())
	if _, err := rt.RunMain(seq(sched.Sleep(time.Millisecond), now, sched.Sleep(math.MaxInt64), now)); err != nil {
		t.Fatal(err)
	}
	if len(readings) != 2 || readings[0] != int64(time.Millisecond) || readings[1] != math.MaxInt64 {
		t.Fatalf("clock read %v, want [%d %d]", readings, int64(time.Millisecond), int64(math.MaxInt64))
	}
}

// A put and a TakeMVarFor deadline falling on the same virtual instant
// settle on exactly one outcome: the taker gets the value and the MVar
// is left empty, or the taker expires and the MVar keeps the value.
func TestTimedTakeTiesWithPut(t *testing.T) {
	const d = 10 * time.Millisecond
	counts := map[string]int{}
	for _, shards := range []int{1, 2} {
		for seed := int64(0); seed < 50; seed++ {
			opts := sched.DefaultOptions()
			opts.Shards = shards
			opts.RandomSched = true
			opts.TimeSlice = 1 + int(seed%3)
			opts.Seed = seed
			var got, left any
			main := sched.Bind(sched.NewEmptyMVar(), func(raw any) sched.Node {
				mv := raw.(*sched.MVar)
				putter := seq(sched.Sleep(d), sched.PutMVar(mv, "value"))
				// Odd seeds yield first, so the putter's sleep arms before
				// the taker's deadline; even seeds arm the deadline first.
				var first sched.Node = sched.ReturnUnit()
				if seed%2 == 1 {
					first = sched.Yield()
				}
				return seq(
					sched.Bind(sched.Fork(putter), drop), first,
					sched.Bind(sched.TakeMVarFor(mv, d), func(v any) sched.Node { got = v; return sched.ReturnUnit() }),
					sched.Sleep(d),
					sched.Bind(sched.TakeMVarFor(mv, 0), func(v any) sched.Node { left = v; return sched.ReturnUnit() }),
				)
			})
			if res, _ := run(t, opts, main); res.Exc != nil {
				t.Fatalf("shards=%d seed=%d: %v", shards, seed, res.Exc)
			}
			switch {
			case got == "value" && left == sched.Expired{}:
				counts["value"]++
			case got == sched.Expired{} && left == "value":
				counts["expired"]++
			default:
				t.Fatalf("shards=%d seed=%d: take got %v, MVar then held %v", shards, seed, got, left)
			}
		}
	}
	t.Logf("outcomes: %v", counts)
}

// --- real clock -------------------------------------------------------

func TestRealClockSleepTakesRealTime(t *testing.T) {
	opts := sched.DefaultOptions()
	opts.Clock = sched.RealClock
	rt := sched.NewRT(opts)
	start := time.Now()
	if _, err := rt.RunMain(sched.Sleep(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall < 25*time.Millisecond {
		t.Fatalf("real sleep returned after only %v", wall)
	}
}

// The real clock moves only at idle and every 32nd turn, so a step that
// runs long leaves it behind. A deadline armed after such a step, and a
// Now read there, must use the wall time, not the stale reading: the
// sleep after a 20 ms Lift used to return after microseconds.
func TestRealClockArmsTimersFromWallTime(t *testing.T) {
	const busy, nap = 20 * time.Millisecond, 10 * time.Millisecond
	opts := sched.DefaultOptions()
	opts.Clock = sched.RealClock
	var slept time.Duration
	var start time.Time
	main := seq(
		sched.Lift(func() any { time.Sleep(busy); return nil }),
		sched.Bind(sched.Now(), func(v any) sched.Node {
			if now := time.Duration(v.(int64)); now < busy {
				t.Errorf("Now after a %v step reads %v", busy, now)
			}
			start = time.Now()
			return sched.Sleep(nap)
		}),
		sched.Lift(func() any { slept = time.Since(start); return nil }),
	)
	if _, err := sched.NewRT(opts).RunMain(main); err != nil {
		t.Fatal(err)
	}
	if slept < nap*9/10 {
		t.Fatalf("Sleep(%v) after a %v step returned after %v", nap, busy, slept)
	}
}

func TestRealClockTimersInterleaveWithEvents(t *testing.T) {
	opts := sched.DefaultOptions()
	opts.Clock = sched.RealClock
	rt := sched.NewRT(opts)
	go func() {
		time.Sleep(10 * time.Millisecond)
		rt.External(func(rt *sched.RT) { rt.InjectInput("x") })
	}()
	main := seq(
		sched.Bind(sched.Fork(seq(sched.Sleep(20*time.Millisecond), sched.PutChar('t'))), drop),
		sched.Bind(sched.GetChar(), func(c any) sched.Node { return sched.PutChar(c.(rune)) }),
		sched.Sleep(40*time.Millisecond),
	)
	if _, err := rt.RunMain(main); err != nil {
		t.Fatal(err)
	}
	if rt.Output() != "xt" {
		t.Fatalf("output %q, want event before timer", rt.Output())
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A runtime with nothing to run sleeps: with one shard, parked on a
// one-second I/O operation, it blocks until the completion wakes it
// instead of polling for it. (With siblings the idle path still polls;
// that reading is logged, not asserted.) The clock it wakes up to is the
// wall's: a sleep armed right after the park lasts its full length.
func TestIdleRuntimeSleeps(t *testing.T) {
	const park, nap = time.Second, 50 * time.Millisecond
	for _, shards := range []int{1, 2} {
		opts := sched.DefaultOptions()
		opts.Clock = sched.RealClock
		opts.Shards = shards
		io := iomgr.Do("park", func() (core.Unit, error) {
			time.Sleep(park)
			return core.UnitValue, nil
		})
		start, before := time.Now(), cpuTime(t)
		if _, err := sched.NewRT(opts).RunMain(seq(io.Node(), sched.Sleep(nap))); err != nil {
			t.Fatal(err)
		}
		took, used := time.Since(start), cpuTime(t)-before
		t.Logf("shards=%d: %v of CPU over a %v park", shards, used, park)
		if shards == 1 && used > 20*time.Millisecond {
			t.Errorf("one idle shard used %v of CPU over a %v park, want < 20ms", used, park)
		}
		if took < park+nap {
			t.Errorf("shards=%d: park then sleep took %v, want >= %v", shards, took, park+nap)
		}
	}
}

// --- preemption stats ----------------------------------------------------

func TestPreemptionCounted(t *testing.T) {
	opts := sched.DefaultOptions()
	opts.TimeSlice = 10
	rt := sched.NewRT(opts)
	main := seq(
		sched.Bind(sched.Fork(busy(500)), drop),
		busy(500),
		sched.Sleep(time.Millisecond),
	)
	if _, err := rt.RunMain(main); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Preemptions == 0 {
		t.Fatal("no preemptions with two busy threads and a 10-step slice")
	}
}

// --- mask frame cancellation stats -----------------------------------------

func TestMaskFrameCancellationCounted(t *testing.T) {
	rt := sched.NewRT(sched.DefaultOptions())
	var f func(n int) sched.Node
	f = func(n int) sched.Node {
		if n == 0 {
			return sched.Return(0)
		}
		return sched.Block(sched.Unblock(sched.Delay(func() sched.Node { return f(n - 1) })))
	}
	if _, err := rt.RunMain(f(100)); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.MaskFramesCancelled < 99 {
		t.Fatalf("MaskFramesCancelled = %d", st.MaskFramesCancelled)
	}
	if st.MaskEnters < 200 {
		t.Fatalf("MaskEnters = %d", st.MaskEnters)
	}
}
