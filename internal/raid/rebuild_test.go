package raid

import (
	"strings"
	"testing"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

// smallDisks keeps member extents tiny so full-extent rebuilds loop
// over a handful of chunks, not hundreds of thousands.
func smallDisks(e *sim.Engine, n int, capacity int64) []*device.Disk {
	ds := make([]*device.Disk, n)
	for i := range ds {
		ds[i] = device.NewDisk(e, device.DefaultSATA("m"+string(rune('0'+i)), capacity, 100e6))
	}
	return ds
}

func spareDisk(e *sim.Engine, capacity int64) *device.Disk {
	return device.NewDisk(e, device.DefaultSATA("spare", capacity, 100e6))
}

func TestRebuildRAID5RestoresArray(t *testing.T) {
	e := sim.NewEngine()
	ds := smallDisks(e, 5, 64*mb)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	a.Fail(1)
	sp := spareDisk(e, 64*mb)
	e.Spawn("rebuild", func(p *sim.Proc) {
		if err := a.Rebuild(p, sp, RebuildConfig{}); err != nil {
			t.Errorf("rebuild: %v", err)
		}
	})
	e.Run()

	if a.Degraded() {
		t.Fatal("array still degraded after full rebuild")
	}
	if got := a.FailedMembers(); len(got) != 0 {
		t.Fatalf("failed members after rebuild: %v", got)
	}
	extent := int64(64 * mb)
	if got := a.Telemetry().AuxVal("rebuild_bytes"); got != extent {
		t.Fatalf("rebuild_bytes = %d, want %d", got, extent)
	}
	if got := a.Telemetry().AuxVal("rebuilds_completed"); got != 1 {
		t.Fatalf("rebuilds_completed = %d", got)
	}
	// The spare took the full member extent of writes.
	if counters(sp).Write.Bytes != extent {
		t.Fatalf("spare written %d, want %d", counters(sp).Write.Bytes, extent)
	}
	// Every survivor contributed reads for the XOR reconstruction.
	for i, d := range ds {
		if i == 1 {
			continue
		}
		if counters(d).Read.Bytes != extent {
			t.Fatalf("survivor %d read %d, want %d", i, counters(d).Read.Bytes, extent)
		}
	}
	// Post-rebuild I/O must serve healthy (no reconstruction on reads).
	before := counters(ds[0]).Read.Bytes
	e.Spawn("io", func(p *sim.Proc) { a.ReadAt(ioreq.Reader(p), 0, mb) })
	e.Run()
	if amp := counters(ds[0]).Read.Bytes - before; amp > mb {
		t.Fatalf("healthy read amplified: member 0 read %d for %d", amp, mb)
	}
}

func TestRebuildPartialPassLeavesDegraded(t *testing.T) {
	e := sim.NewEngine()
	ds := smallDisks(e, 2, 64*mb)
	a := NewRAID1(e, "r1", asBlockDevs(ds)...)
	a.Fail(0)
	e.Spawn("rebuild", func(p *sim.Proc) {
		if err := a.Rebuild(p, spareDisk(e, 64*mb), RebuildConfig{Bytes: 8 * mb}); err != nil {
			t.Errorf("rebuild: %v", err)
		}
	})
	e.Run()
	if !a.Degraded() {
		t.Fatal("partial rebuild repaired the array")
	}
	if got := a.Telemetry().AuxVal("rebuild_bytes"); got != 8*mb {
		t.Fatalf("rebuild_bytes = %d, want %d", got, 8*mb)
	}
	if got := a.Telemetry().AuxVal("rebuilds_completed"); got != 0 {
		t.Fatalf("rebuilds_completed = %d after partial pass", got)
	}
}

func TestRebuildRatePacing(t *testing.T) {
	e := sim.NewEngine()
	ds := smallDisks(e, 2, 64*mb)
	a := NewRAID1(e, "r1", asBlockDevs(ds)...)
	a.Fail(1)
	d := run(e, func(p *sim.Proc) {
		if err := a.Rebuild(p, spareDisk(e, 64*mb), RebuildConfig{Bytes: 50 * mb, Rate: 25e6}); err != nil {
			t.Errorf("rebuild: %v", err)
		}
	})
	// 50 MiB at 25 MB/s is paced to at least ~2.1 s.
	if d < 2*sim.Second {
		t.Fatalf("paced rebuild took %v, want ≥ 2s", d)
	}
}

func TestRebuildErrors(t *testing.T) {
	e := sim.NewEngine()

	// JBOD cannot rebuild.
	j := NewJBOD(e, "j", asBlockDevs(smallDisks(e, 2, 64*mb))...)
	e.Spawn("t", func(p *sim.Proc) {
		if err := j.Rebuild(p, spareDisk(e, 64*mb), RebuildConfig{}); err == nil {
			t.Error("JBOD rebuild did not error")
		}
	})
	e.Run()

	// Healthy array: nothing to rebuild.
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(smallDisks(e, 5, 64*mb))...)
	e.Spawn("t", func(p *sim.Proc) {
		if err := a.Rebuild(p, spareDisk(e, 64*mb), RebuildConfig{}); err == nil {
			t.Error("healthy-array rebuild did not error")
		}
	})
	e.Run()

	// Undersized spare.
	a.Fail(0)
	small := device.NewDisk(e, device.DefaultSATA("small", 10*mb, 100e6))
	e.Spawn("t", func(p *sim.Proc) {
		err := a.Rebuild(p, small, RebuildConfig{})
		if err == nil || !strings.Contains(err.Error(), "smaller than member extent") {
			t.Errorf("undersized spare error = %v", err)
		}
	})
	e.Run()
}
