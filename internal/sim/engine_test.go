package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 10) }) // same time: FIFO after first 1
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %g, want 3", e.Now())
	}
}

func TestScheduleCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Schedule(0.5, func() { ev.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestProcWait(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Spawn("a", func(p *Proc) {
		p.Wait(1)
		times = append(times, p.Now())
		p.Wait(2.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 3.5 {
		t.Fatalf("times = %v", times)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Wait(1)
		trace = append(trace, fmt.Sprintf("a@%g", p.Now()))
		p.Wait(2)
		trace = append(trace, fmt.Sprintf("a@%g", p.Now()))
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(2)
		trace = append(trace, fmt.Sprintf("b@%g", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@2", "a@3"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	ch := NewChan[int](e, 0)
	e.Spawn("stuck", func(p *Proc) {
		ch.Recv(p)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck: chan recv" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Spawn("looper", func(p *Proc) {
		for {
			p.Wait(1)
			n++
			if n == 5 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		ch := NewChan[int](e, 3)
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("producer%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Wait(float64(i+1) * 0.1)
					ch.Send(p, i*10+j)
				}
			})
		}
		e.Spawn("consumer", func(p *Proc) {
			for k := 0; k < 20; k++ {
				v := ch.Recv(p)
				trace = append(trace, fmt.Sprintf("%d@%.3f", v, p.Now()))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// Property: for any sequence of positive waits, observed times are the
// prefix sums (time is exact and monotone).
func TestWaitPrefixSumsProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) > 50 {
			durs = durs[:50]
		}
		e := NewEngine()
		var obs []Time
		e.Spawn("w", func(p *Proc) {
			for _, d := range durs {
				p.Wait(float64(d))
				obs = append(obs, p.Now())
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		sum := 0.0
		for i, d := range durs {
			sum += float64(d)
			if obs[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// order they were scheduled in.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < int(n%64)+1; i++ {
			e.Schedule(rng.Float64()*100, func() {
				fired = append(fired, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 10 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(0, rec)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 10 || e.Now() != 9 {
		t.Fatalf("depth=%d now=%g", depth, e.Now())
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("parent", func(p *Proc) {
		p.Wait(1)
		p.eng.Spawn("child", func(c *Proc) {
			c.Wait(1)
			order = append(order, "child")
		})
		p.Wait(0.5)
		order = append(order, "parent")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "parent" || order[1] != "child" {
		t.Fatalf("order = %v", order)
	}
}

func TestWatchdog(t *testing.T) {
	e := NewEngine()
	e.SetMaxEvents(100)
	ch := NewChan[int](e, 0)
	// Two processes ping-ponging forever.
	e.Spawn("a", func(p *Proc) {
		for {
			ch.Send(p, 1)
			ch.Recv(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for {
			ch.Recv(p)
			p.Wait(1e-9)
			ch.Send(p, 2)
		}
	})
	err := e.Run()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("err = %v, want WatchdogError", err)
	}
	if we.Fired < 100 || e.Fired() < 100 {
		t.Fatalf("fired = %d", we.Fired)
	}
}

func TestFiredCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 5 {
		t.Fatalf("fired = %d, want 5", e.Fired())
	}
}

// TestScheduleOwnedAtExactTime pins why ScheduleOwnedAt exists: an event
// fires at exactly the absolute time it was given, even where the
// now+(t-now) round trip of a relative delay would move the low bits, and
// it keeps FIFO order with other events at that instant.
func TestScheduleOwnedAtExactTime(t *testing.T) {
	now, target := Time(6.977303741012196e-07), Time(6.825903023294777e-06)
	if now+(target-now) == target {
		t.Fatalf("test times %g/%g do not exercise rounding", now, target)
	}
	e := NewEngine()
	var order []string
	var at Time
	e.ScheduleAt(now, func() {
		e.ScheduleAt(target, func() { order = append(order, "plain") })
		e.ScheduleOwnedAt(target, func() {
			order = append(order, "owned")
			at = e.Now()
		})
		e.ScheduleAt(target, func() { order = append(order, "late") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != target {
		t.Fatalf("owned event fired at %.17g, want exactly %.17g", at, target)
	}
	if got, want := fmt.Sprint(order), "[plain owned late]"; got != want {
		t.Fatalf("same-instant order %s, want %s", got, want)
	}
}

// TestScheduleOwnedAtPastPanics pins the misuse guard: an absolute time
// before Now() is a bug in the caller, not an event to reorder.
func TestScheduleOwnedAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleOwnedAt before Now did not panic")
			}
		}()
		e.ScheduleOwnedAt(0.5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
