package raid

import (
	"reflect"
	"testing"

	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

func TestDegradedRAID5ReadReconstructs(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 5)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	var healthy sim.Duration
	e.Spawn("prep", func(p *sim.Proc) {
		a.WriteAt(ioreq.Writer(p), 0, 16*mb)
		t0 := p.Now()
		a.ReadAt(ioreq.Reader(p), 0, 16*mb)
		healthy = sim.Duration(p.Now() - t0)
	})
	e.Run()

	a.Fail(2)
	if !a.Degraded() {
		t.Fatal("array not degraded after Fail")
	}
	var degraded sim.Duration
	var before [5]int64
	for i, d := range ds {
		before[i] = counters(d).Read.Bytes
	}
	e.Spawn("read", func(p *sim.Proc) {
		t0 := p.Now()
		a.ReadAt(ioreq.Reader(p), 0, 16*mb)
		degraded = sim.Duration(p.Now() - t0)
	})
	e.Run()
	if degraded <= healthy {
		t.Fatalf("degraded read (%v) not slower than healthy (%v)", degraded, healthy)
	}
	if got := counters(ds[2]).Read.Bytes - before[2]; got != 0 {
		t.Fatalf("failed disk read %d bytes", got)
	}
	// Survivors must have read MORE than their data share (reconstruction).
	var total int64
	for i, d := range ds {
		total += counters(d).Read.Bytes - before[i]
	}
	if total <= 16*mb {
		t.Fatalf("reconstruction amplification missing: %d bytes read for 16MB", total)
	}
}

func TestDegradedRAID1ServesFromSurvivor(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 2)
	a := NewRAID1(e, "r1", asBlockDevs(ds)...)
	e.Spawn("prep", func(p *sim.Proc) { a.WriteAt(ioreq.Writer(p), 0, 8*mb) })
	e.Run()
	a.Fail(0)
	e.Spawn("rw", func(p *sim.Proc) {
		a.ReadAt(ioreq.Reader(p), 0, 8*mb)
		a.WriteAt(ioreq.Writer(p), 0, 4*mb)
		a.Flush(ioreq.Meta(p))
	})
	before := counters(ds[0])
	e.Run()
	if !reflect.DeepEqual(counters(ds[0]), before) {
		t.Fatal("failed mirror still receiving traffic")
	}
	if counters(ds[1]).Read.Bytes < 8*mb {
		t.Fatalf("survivor served %d bytes read", counters(ds[1]).Read.Bytes)
	}
}

func TestFailJBODPanics(t *testing.T) {
	e := sim.NewEngine()
	a := NewJBOD(e, "j", asBlockDevs(disks(e, 1))...)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Fail(0)
}

func TestSecondRAID5FailurePanics(t *testing.T) {
	e := sim.NewEngine()
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(disks(e, 5))...)
	a.Fail(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second failure")
		}
	}()
	a.Fail(1)
}

func TestDegradedRAID5WritesStillLand(t *testing.T) {
	// Writes in degraded mode must still put the information somewhere
	// (survivors + parity), so a full-stripe write touches n-1 disks.
	e := sim.NewEngine()
	ds := disks(e, 5)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	a.Fail(1)
	e.Spawn("w", func(p *sim.Proc) { a.WriteAt(ioreq.Writer(p), 0, 4*mb) })
	e.Run()
	var landed int64
	for i, d := range ds {
		if i == 1 && counters(d).Write.Bytes != 0 {
			t.Fatal("failed member written")
		}
		landed += counters(d).Write.Bytes
	}
	if landed < 4*mb {
		t.Fatalf("only %d bytes landed for a 4MB degraded write", landed)
	}
}
