package sim

import (
	"fmt"
	"math/rand"
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

// Once warm, a sleeping process allocates nothing per Sleep: the
// calendar event is recycled and the wake closure is bound at spawn.
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

func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i), func() {})
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcContextSwitch(b *testing.B) {
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
