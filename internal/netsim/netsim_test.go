package netsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"ioeval/internal/ioreq"
	"ioeval/internal/racebuild"
	"ioeval/internal/sim"
)

const mb = int64(1) << 20

func newNet(e *sim.Engine, nodes ...string) *Network {
	n := New(e, GigabitEthernet("test"))
	for _, node := range nodes {
		n.Attach(node)
	}
	return n
}

func elapsed(e *sim.Engine, fn func(*sim.Proc)) sim.Duration {
	var dur sim.Duration
	e.Spawn("t", func(p *sim.Proc) {
		t0 := p.Now()
		fn(p)
		dur = sim.Duration(p.Now() - t0)
	})
	e.Run()
	return dur
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	d := elapsed(e, func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "b", 117*mb) })
	// 117 MB at 117 MB/s ≈ 1.05 s (plus small latency/overheads).
	if d < sim.Second || d > sim.Second+sim.Second/10 {
		t.Fatalf("117MB transfer took %v, want ~1.05s", d)
	}
}

func TestSmallMessageDominatedByLatency(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	d := elapsed(e, func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "b", 64) })
	if d < 100*sim.Microsecond || d > 200*sim.Microsecond {
		t.Fatalf("64B message took %v, want latency-bound ~110µs", d)
	}
}

func TestManyToOneContention(t *testing.T) {
	// Four clients each send 29.25 MB to one server: the server's RX
	// channel serializes them, so total time ≈ 4 × one transfer.
	e := sim.NewEngine()
	n := newNet(e, "srv", "c0", "c1", "c2", "c3")
	done := sim.NewCompletion(e, 4)
	for i := 0; i < 4; i++ {
		node := fmt.Sprintf("c%d", i)
		e.Spawn(node, func(p *sim.Proc) {
			n.Send(ioreq.Meta(p), node, "srv", 29*mb)
			done.Done()
		})
	}
	end := e.Run()
	// 4 × 29 MB = 116 MB through one 117 MB/s NIC: very close to 1 s.
	if end < sim.Time(990*sim.Millisecond) || end > sim.Time(1100*sim.Millisecond) {
		t.Fatalf("4-client aggregate finished at %v, want ~1s (RX serialization)", sim.Duration(end))
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	// A→B and B→A at the same time must not contend (full duplex):
	// both finish in about the single-transfer time.
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	e.Spawn("fwd", func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "b", 117*mb) })
	e.Spawn("rev", func(p *sim.Proc) { n.Send(ioreq.Meta(p), "b", "a", 117*mb) })
	end := e.Run()
	if end > sim.Time(sim.Second+sim.Second/10) {
		t.Fatalf("duplex transfers took %v, want ~1.05s (no contention)", sim.Duration(end))
	}
}

func TestDisjointPairsParallel(t *testing.T) {
	// a→b and c→d do not share any NIC: fully parallel.
	e := sim.NewEngine()
	n := newNet(e, "a", "b", "c", "d")
	e.Spawn("1", func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "b", 117*mb) })
	e.Spawn("2", func(p *sim.Proc) { n.Send(ioreq.Meta(p), "c", "d", 117*mb) })
	end := e.Run()
	if end > sim.Time(sim.Second+sim.Second/10) {
		t.Fatalf("disjoint transfers took %v, want ~1.05s", sim.Duration(end))
	}
}

func TestFairSharingViaQuanta(t *testing.T) {
	// Two flows out of the same source NIC: each should get about half
	// the bandwidth, and both should finish around 2× the solo time,
	// rather than one finishing at 1× and the other at 2×.
	e := sim.NewEngine()
	n := newNet(e, "a", "b", "c")
	var end1, end2 sim.Time
	e.Spawn("1", func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "b", 58*mb); end1 = p.Now() })
	e.Spawn("2", func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "c", 58*mb); end2 = p.Now() })
	e.Run()
	diff := end1 - end2
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.1*float64(end1) {
		t.Fatalf("unfair sharing: flow ends %v vs %v", sim.Duration(end1), sim.Duration(end2))
	}
}

func TestLoopbackFast(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	dLoop := elapsed(e, func(p *sim.Proc) { n.Send(ioreq.Meta(p), "a", "a", 10*mb) })
	e2 := sim.NewEngine()
	n2 := newNet(e2, "a", "b")
	dWire := elapsed(e2, func(p *sim.Proc) { n2.Send(ioreq.Meta(p), "a", "b", 10*mb) })
	if dLoop >= dWire {
		t.Fatalf("loopback (%v) not faster than wire (%v)", dLoop, dWire)
	}
}

// A request and its response between resolved endpoints cost two
// latency-bound messages, the same as Send by name.
func TestTransferRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "cl", "srv")
	cl, srv := n.NIC("cl"), n.NIC("srv")
	d := elapsed(e, func(p *sim.Proc) {
		n.Transfer(ioreq.Meta(p), cl, srv, 128)
		n.Transfer(ioreq.Meta(p), srv, cl, 128)
	})
	if d < 200*sim.Microsecond || d > 400*sim.Microsecond {
		t.Fatalf("round trip took %v, want ~220µs", d)
	}
	e2 := sim.NewEngine()
	n2 := newNet(e2, "cl", "srv")
	byName := elapsed(e2, func(p *sim.Proc) {
		n2.Send(ioreq.Meta(p), "cl", "srv", 128)
		n2.Send(ioreq.Meta(p), "srv", "cl", 128)
	})
	if byName != d {
		t.Fatalf("round trip by name took %v, by endpoint %v", byName, d)
	}
}

// A NIC belongs to the network that attached it.
func TestTransferForeignNICPanics(t *testing.T) {
	e := sim.NewEngine()
	n, other := newNet(e, "a", "b"), newNet(e, "a")
	e.Spawn("s", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on a NIC of another network")
			}
		}()
		n.Transfer(ioreq.Meta(p), other.NIC("a"), n.NIC("b"), 1)
	})
	e.Run()
}

func TestDuplicateAttachPanics(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attach")
		}
	}()
	n.Attach("a")
}

func TestUnknownNodePanics(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "a")
	e.Spawn("s", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on unknown destination")
			}
		}()
		n.Send(ioreq.Meta(p), "a", "ghost", 1)
	})
	e.Run()
}

func TestStats(t *testing.T) {
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	elapsed(e, func(p *sim.Proc) {
		n.Send(ioreq.Meta(p), "a", "b", 3*mb)
		n.Send(ioreq.Meta(p), "b", "a", mb)
	})
	if n.Stats.Messages != 2 || n.Stats.Bytes != 4*mb {
		t.Fatalf("network stats = %+v", n.Stats)
	}
	// A NIC counts a message it sends as a write and one it receives
	// as a read.
	c := n.NIC("a").Telemetry().Snapshot().Counters
	if c.Read.Ops+c.Write.Ops != 2 || c.Read.Bytes+c.Write.Bytes != 4*mb {
		t.Fatalf("nic a: %d messages, %d bytes", c.Read.Ops+c.Write.Ops, c.Read.Bytes+c.Write.Bytes)
	}
}

// Property: transfer time is monotone in size and never beats the
// bandwidth bound.
func TestQuickTransferMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a := int64(aRaw % (32 << 20))
		b := int64(bRaw % (32 << 20))
		if a > b {
			a, b = b, a
		}
		timeFor := func(nb int64) sim.Duration {
			e := sim.NewEngine()
			n := newNet(e, "x", "y")
			return elapsed(e, func(p *sim.Proc) { n.Send(ioreq.Meta(p), "x", "y", nb) })
		}
		ta, tb := timeFor(a), timeFor(b)
		bound := sim.Duration(float64(a) / 117e6 * 1e9)
		return ta >= bound && tb >= ta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSend(b *testing.B) {
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	e.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			n.Send(ioreq.Meta(p), "a", "b", 64<<10)
		}
	})
	b.ResetTimer()
	e.Run()
}

// A send allocates nothing, by name or between resolved endpoints: its
// span is bound to the network's recorder, so no label is built per
// message, and comes from the span pool. The spawn that drives the
// sends adds about 10 allocations per run. A race build allows one per
// send, since its pool drops a quarter of the spans it is given.
func TestSendAllocs(t *testing.T) {
	const sends = 10000
	e := sim.NewEngine()
	n := newNet(e, "a", "b")
	a, b := n.NIC("a"), n.NIC("b")
	limit := 0.05
	if racebuild.Enabled {
		limit = 1.05
	}
	for _, tc := range []struct {
		name string
		send func(r *ioreq.Request)
	}{
		{"Send", func(r *ioreq.Request) { n.Send(r, "a", "b", 64<<10) }},
		{"Transfer", func(r *ioreq.Request) { n.Transfer(r, a, b, 64<<10) }},
	} {
		run := func() {
			e.Spawn("s", func(p *sim.Proc) {
				r := ioreq.Meta(p)
				for i := 0; i < sends; i++ {
					tc.send(r)
				}
			})
			e.Run()
		}
		if per := testing.AllocsPerRun(5, run) / sends; per > limit {
			t.Fatalf("%.3f allocs per %s, want <= %.2f", per, tc.name, limit)
		}
	}
}
