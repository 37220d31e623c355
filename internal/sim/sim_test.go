package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on ScheduleAt in the past")
			}
		}()
		e.ScheduleAt(50, func() {})
	})
	e.Run()
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(15, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 25 {
		t.Fatalf("fired = %v, want [10 25]", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var n int
	e.Schedule(10, func() { n++ })
	e.Schedule(20, func() { n++ })
	e.Schedule(30, func() { n++ })
	e.RunUntil(20)
	if n != 2 {
		t.Fatalf("events run = %d, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if n != 3 || e.Now() != 100 {
		t.Fatalf("after second RunUntil: n=%d now=%d", n, e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42)
		wake = p.Now()
	})
	e.Run()
	if wake != 42 {
		t.Fatalf("woke at %d, want 42", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	for i, m := range marks {
		if m != Time(10*(i+1)) {
			t.Fatalf("marks = %v", marks)
		}
	}
}

// TestSleepZeroDoesNotYield pins that Sleep(0) returns without
// scheduling anything: a second process runnable at the same instant
// (its start event is already on the calendar) must not run in
// between. Server sections charge p.Sleep(cost) with cost possibly
// zero and rely on this to stay a single uninterrupted step.
func TestSleepZeroDoesNotYield(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("a", func(p *Proc) {
		log = append(log, "a:before")
		p.Sleep(0)
		log = append(log, fmt.Sprintf("a:after@%d", p.Now()))
	})
	e.Spawn("b", func(p *Proc) {
		log = append(log, "b")
	})
	e.Run()
	want := []string{"a:before", "a:after@0", "b"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Duration(10 + i))
					log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 1, 100)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dual", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 1, 100)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 2)
	var order []string
	// big claim arrives second; small third. The big one must not be
	// starved by the small one slipping past it.
	e.Spawn("first", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(100)
		r.Release(1)
		order = append(order, "first")
	})
	e.SpawnAfter(1, "big", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10)
		r.Release(2)
		order = append(order, "big")
	})
	e.SpawnAfter(2, "small", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10)
		r.Release(1)
		order = append(order, "small")
	})
	e.Run()
	if order[0] != "first" || order[1] != "big" || order[2] != "small" {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	e.Spawn("u", func(p *Proc) {
		r.Use(p, 1, 50)
		p.Sleep(50)
	})
	e.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %f, want 0.5", u)
	}
}

func TestCompletion(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e, 3)
	var doneAt Time
	e.Spawn("waiter", func(p *Proc) {
		c.WaitFor(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Schedule(Duration(i*10), func() { c.Done() })
	}
	e.Run()
	if doneAt != 30 {
		t.Fatalf("completion at %d, want 30", doneAt)
	}
}

func TestCompletionAlreadyZero(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e, 0)
	ran := false
	e.Spawn("waiter", func(p *Proc) {
		c.WaitFor(p) // must not block
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("waiter blocked on zero completion")
	}
}

func TestFork(t *testing.T) {
	e := NewEngine()
	var joined Time
	var childEnds []Time
	e.Spawn("parent", func(p *Proc) {
		Fork(p, "work",
			func(c *Proc) { c.Sleep(30); childEnds = append(childEnds, c.Now()) },
			func(c *Proc) { c.Sleep(50); childEnds = append(childEnds, c.Now()) },
			func(c *Proc) { c.Sleep(10); childEnds = append(childEnds, c.Now()) },
		)
		joined = p.Now()
	})
	e.Run()
	if joined != 50 {
		t.Fatalf("join at %d, want 50 (max of children)", joined)
	}
	sort.Slice(childEnds, func(i, j int) bool { return childEnds[i] < childEnds[j] })
	want := []Time{10, 30, 50}
	for i := range want {
		if childEnds[i] != want[i] {
			t.Fatalf("childEnds = %v", childEnds)
		}
	}
}

// Fork children are named after their parent, the fork label and
// their index, nesting through grandchildren.
func TestForkChildNames(t *testing.T) {
	e := NewEngine()
	var names []string
	e.Spawn("root", func(p *Proc) {
		Fork(p, "stripe",
			func(c *Proc) { names = append(names, c.Name()) },
			func(c *Proc) {
				Fork(c, "disk", func(g *Proc) { names = append(names, g.Name()) })
				names = append(names, c.Name())
			},
		)
		names = append(names, p.Name())
	})
	e.Run()
	want := []string{"root/stripe[0]", "root/stripe[1]/disk[0]", "root/stripe[1]", "root"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("names = %q, want %q", names, want)
	}
}

func TestForkEmpty(t *testing.T) {
	e := NewEngine()
	e.Spawn("parent", func(p *Proc) {
		Fork(p, "none") // must return immediately
		if p.Now() != 0 {
			t.Errorf("empty Fork advanced time to %d", p.Now())
		}
	})
	e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	r := NewResource(e, "r", 1)
	e.Spawn("a", func(p *Proc) {
		r.Acquire(p, 1)
		// never released; second proc blocks forever
	})
	e.Spawn("b", func(p *Proc) {
		r.Acquire(p, 1)
	})
	e.Run()
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		5:               "5ns",
		5 * Microsecond: "5.000µs",
		5 * Millisecond: "5.000ms",
		5 * Second:      "5.000s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestDurationFromSeconds(t *testing.T) {
	if d := DurationFromSeconds(1.5); d != 1500*Millisecond {
		t.Fatalf("DurationFromSeconds(1.5) = %d", d)
	}
	if d := DurationFromSeconds(0); d != 0 {
		t.Fatalf("DurationFromSeconds(0) = %d", d)
	}
}

// Property: for any set of non-negative delays, Run fires all events,
// ends at the max delay, and fires them in sorted order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, d := range raw {
			e.Schedule(Duration(d), func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if len(fired) != len(raw) {
			return false
		}
		sorted := make([]int, len(raw))
		for i, d := range raw {
			sorted[i] = int(d)
		}
		sort.Ints(sorted)
		for i := range fired {
			if fired[i] != Time(sorted[i]) {
				return false
			}
		}
		return end == Time(sorted[len(sorted)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource used by n processes for hold h each
// finishes at exactly n*h, regardless of arrival order.
func TestQuickResourceThroughput(t *testing.T) {
	f := func(nRaw, hRaw uint8) bool {
		n := int(nRaw%8) + 1
		h := Duration(hRaw%100) + 1
		e := NewEngine()
		r := NewResource(e, "r", 1)
		rng := rand.New(rand.NewSource(int64(nRaw)*251 + int64(hRaw)))
		for i := 0; i < n; i++ {
			start := Duration(rng.Intn(5))
			e.SpawnAfter(start, "u", func(p *Proc) { r.Use(p, 1, h) })
		}
		end := e.Run()
		// All work is serialized; the last finisher ends no earlier than
		// n*h and no later than n*h + max start offset.
		return end >= Time(int64(n)*int64(h)) && end <= Time(int64(n)*int64(h)+5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The sleep-through fast path (Proc.Sleep skipping the calendar) must
// be invisible: each test below fixes an order the parked path gives.

// An event already due at the sleeper's wake-up time runs first: it
// was queued earlier, so it sorts ahead of the sleeper's own event.
func TestSleepThroughYieldsToSameTimeEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("p", func(p *Proc) {
		e.Schedule(10, func() { log = append(log, fmt.Sprintf("event@%d", e.Now())) })
		p.Sleep(10)
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
	})
	e.Run()
	want := []string{"event@10", "p@10"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// A process woken by Release inside another process runs within the
// releaser's instant; its next Sleep must park, so the releaser keeps
// the release time and the sleeper resumes only after the releaser
// parks.
func TestSleepAfterReleaseWakeParks(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var log []string
	mark := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%s@%d", what, p.Now())) }
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10)
		r.Release(1)
		mark(p, "released")
		p.Sleep(5)
		mark(p, "holder")
	})
	e.Spawn("waiter", func(p *Proc) {
		r.Acquire(p, 1)
		mark(p, "acquired")
		p.Sleep(3)
		mark(p, "waiter")
		r.Release(1)
	})
	e.Run()
	want := []string{"acquired@10", "released@10", "waiter@13", "holder@15"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// A process woken from a scheduled callback runs inside that callback;
// its Sleep goes through the calendar, so the callback's code after
// the wake still sees the callback's time.
func TestSleepAfterCallbackWakeParks(t *testing.T) {
	e := NewEngine()
	var log []string
	var wake func()
	e.Spawn("p", func(p *Proc) {
		wake = p.PrepareWait()
		p.Wait()
		log = append(log, fmt.Sprintf("woken@%d", p.Now()))
		p.Sleep(10)
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
	})
	e.Schedule(5, func() {
		wake()
		log = append(log, fmt.Sprintf("callback@%d", e.Now()))
	})
	e.Run()
	want := []string{"woken@5", "callback@5", "p@15"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// RunUntil stops a sleeper at its limit, with the wake-up still on the
// calendar; a later Run resumes it on time, behind an event due then.
func TestSleepThroughStopsAtRunUntilLimit(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			log = append(log, fmt.Sprintf("p@%d", p.Now()))
		}
	})
	e.Schedule(30, func() { log = append(log, fmt.Sprintf("event@%d", e.Now())) })
	if now := e.RunUntil(15); now != 15 || fmt.Sprint(log) != "[p@10]" || e.Pending() != 2 {
		t.Fatalf("after RunUntil(15): now %d, log %v, pending %d; want 15, [p@10], 2", now, log, e.Pending())
	}
	want := []string{"p@10", "p@20", "event@30", "p@30"}
	if end := e.Run(); end != 30 || fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("after Run: end %d, log %v; want 30, %v", end, log, want)
	}
}

// A SpawnAfter start takes its FIFO place among same-time events, and
// a sleeper due at that time queues behind all of them.
func TestSpawnAfterKeepsFIFO(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("s", func(p *Proc) {
		p.Sleep(10)
		log = append(log, "s")
	})
	e.Schedule(10, func() { log = append(log, "a") })
	e.SpawnAfter(10, "p", func(*Proc) { log = append(log, "p") })
	e.Schedule(10, func() { log = append(log, "b") })
	e.Run()
	want := []string{"a", "p", "b", "s"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// Once warm, a sleeping process allocates nothing per Sleep, whether
// it sleeps through or parks at the RunUntil limit: the calendar event
// is recycled.
func TestSleepAllocFree(t *testing.T) {
	const sleeps = 1000
	e := NewEngine()
	stop := false
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	allocs := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + sleeps) })
	stop = true
	e.Run()
	if perSleep := allocs / sleeps; perSleep >= 0.01 {
		t.Fatalf("%.4f allocs per Sleep, want < 0.01", perSleep)
	}
}

// A warm Fork takes its children from the engine's pool and joins on
// the parent, so it allocates nothing; fns is built once, outside the
// measured call.
func TestForkAllocs(t *testing.T) {
	e := NewEngine()
	ran := 0
	child := func(*Proc) { ran++ }
	fns := []func(*Proc){child, child, child, child}
	var allocs float64
	e.Spawn("parent", func(p *Proc) {
		Fork(p, "warm", fns...)
		allocs = testing.AllocsPerRun(100, func() { Fork(p, "c", fns...) })
	})
	e.Run()
	if ran != 4*102 {
		t.Fatalf("%d children ran, want %d", ran, 4*102)
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocs per warm Fork of 4, want 0", allocs)
	}
}

// A contended Acquire queues its claim by value in a reused array, so
// once warm it allocates nothing: two processes alternate on a
// one-unit Resource, and every Acquire after the first waits.
func TestResourceWaitAllocs(t *testing.T) {
	const rounds = 500
	e := NewEngine()
	r := NewResource(e, "r", 1)
	stop := false
	for k := 0; k < 2; k++ {
		e.Spawn("user", func(p *Proc) {
			for !stop {
				r.Use(p, 1, 1)
			}
		})
	}
	e.RunUntil(10)
	before := r.TotalWait()
	allocs := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + rounds) })
	stop = true
	e.Run()
	if r.TotalWait() == before {
		t.Fatal("no Acquire waited")
	}
	if perAcquire := allocs / rounds; perAcquire >= 0.01 {
		t.Fatalf("%.4f allocs per contended Acquire, want < 0.01", perAcquire)
	}
}

// Run and RunUntil retire the pooled Fork children before they
// return, so no goroutine outlives the call.
func TestRunRetiresIdleProcs(t *testing.T) {
	// settled polls until the goroutine count is back to base: a
	// retired child has acknowledged, but may not have exited yet.
	settled := func(base int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 10000 && n > base; i++ {
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		return n
	}
	base := settled(runtime.NumGoroutine())
	work := func(e *Engine) {
		for i := 0; i < 4; i++ {
			e.SpawnAfter(Duration(i), "p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					Fork(p, "a",
						func(c *Proc) { c.Sleep(5) },
						func(c *Proc) { Fork(c, "b", func(g *Proc) { g.Sleep(3) }, func(*Proc) {}) },
					)
				}
			})
		}
	}
	e := NewEngine()
	work(e)
	e.Run()
	if n := settled(base); n != base {
		t.Fatalf("after Run: %d goroutines, want %d", n, base)
	}
	e = NewEngine()
	work(e)
	e.RunUntil(20) // some children finished, others parked at the horizon
	if len(e.idle) != 0 {
		t.Fatalf("%d idle children left after RunUntil", len(e.idle))
	}
	e.RunUntil(1000)
	if n := settled(base); n != base || e.Pending() != 0 {
		t.Fatalf("after RunUntil: %d goroutines, want %d; %d events pending", n, base, e.Pending())
	}
}

// BenchmarkFork is one four-way Fork per op of a process whose
// children return at once: warm, the children come from the pool.
func BenchmarkFork(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	child := func(*Proc) {}
	fns := []func(*Proc){child, child, child, child}
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			Fork(p, "c", fns...)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i), func() {})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepThrough is a lone sleeper: every Sleep takes the
// sleep-through fast path and never parks.
func BenchmarkSleepThrough(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcHandoff alternates two processes on a one-unit
// Resource. Each is woken inline by the other's Release, so every
// Sleep and every Acquire after the first parks: one op is four
// parks, two per process.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for k := 0; k < 2; k++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				r.Use(p, 1, 1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}
