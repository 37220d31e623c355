// Package device models rotational storage devices with seek,
// rotational-latency, sustained-transfer and on-board write-cache
// behaviour. It defines BlockDev, the interface the rest of the I/O
// stack (RAID, filesystem, cache) uses to talk to storage.
package device

import (
	"fmt"

	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

var (
	kSlowedOps = telemetry.NewAuxKey("slowed_ops")
	kSeqOps    = telemetry.NewAuxKey("seq_ops")
	kRandomOps = telemetry.NewAuxKey("random_ops")
)

// BlockDev is a byte-addressable block storage target. Offsets and
// lengths are in bytes; implementations charge simulated time to the
// calling process.
type BlockDev interface {
	// ReadAt reads n bytes starting at off, blocking the request's
	// process for the simulated service time.
	ReadAt(r *ioreq.Request, off, n int64)
	// WriteAt writes n bytes starting at off.
	WriteAt(r *ioreq.Request, off, n int64)
	// Flush forces any volatile write cache to stable storage.
	Flush(r *ioreq.Request)
	// Capacity returns the device size in bytes.
	Capacity() int64
	// Name returns a diagnostic name.
	Name() string
}

// DiskParams describes a rotational disk. The defaults produced by
// DefaultSATA correspond to a 7200 rpm SATA drive of the 2011 era,
// matching the hardware in the paper's two clusters.
type DiskParams struct {
	Name     string
	Capacity int64 // bytes

	SeekAvg   sim.Duration // average (random) seek
	SeekTrack sim.Duration // track-to-track (near) seek
	RPM       int          // spindle speed, for rotational latency

	TransferRate float64 // sustained media rate, bytes/second

	CmdOverhead sim.Duration // per-command controller overhead

	// WriteCache models the drive's volatile write-back cache
	// ("write cache enabled (write back)" in the paper's RAID setup):
	// writes skip rotational latency and use the near-seek cost, since
	// the drive acknowledges into cache and destages lazily.
	WriteCache bool
}

// DefaultSATA returns parameters for a 7200 rpm SATA disk with the
// given capacity and sustained rate (bytes/s).
func DefaultSATA(name string, capacity int64, rate float64) DiskParams {
	return DiskParams{
		Name:         name,
		Capacity:     capacity,
		SeekAvg:      8500 * sim.Microsecond,
		SeekTrack:    1000 * sim.Microsecond,
		RPM:          7200,
		TransferRate: rate,
		CmdOverhead:  100 * sim.Microsecond,
		WriteCache:   true,
	}
}

// Disk is a single rotational drive. Requests are serviced FCFS
// through a capacity-1 resource (one head assembly). The disk tracks
// the last accessed position to distinguish sequential from random
// access: sequential transfers pay no positioning cost.
type Disk struct {
	params DiskParams
	res    *sim.Resource
	rec    *telemetry.Recorder

	nextSeq int64 // offset that would continue the current sequential run
	dirty   int64 // bytes in the volatile write cache

	// slow is a service-time multiplier for fault injection: 0 or 1 is
	// a healthy drive, >1 models a degraded one (media retries, grown
	// defects, a failing head). See SetSlowFactor.
	slow float64
}

// NewDisk constructs a Disk on the given engine.
func NewDisk(e *sim.Engine, params DiskParams) *Disk {
	if params.Capacity <= 0 || params.TransferRate <= 0 || params.RPM <= 0 {
		panic(fmt.Sprintf("device: invalid params for %q", params.Name))
	}
	return &Disk{
		params:  params,
		res:     sim.NewResource(e, "disk:"+params.Name, 1),
		rec:     telemetry.NewRecorder(e, "disk:"+params.Name, telemetry.LevelDevice, 1),
		nextSeq: -1, // first access always pays positioning
	}
}

// Telemetry returns the disk's telemetry probe.
func (d *Disk) Telemetry() *telemetry.Recorder { return d.rec }

// Name returns the disk's name.
func (d *Disk) Name() string { return d.params.Name }

// Capacity returns the disk size in bytes.
func (d *Disk) Capacity() int64 { return d.params.Capacity }

// Params returns the disk's parameters.
func (d *Disk) Params() DiskParams { return d.params }

// SetSlowFactor scales every subsequent operation's service time by
// factor — the fault plane's "slow disk" model (a drive retrying over
// media errors serves requests, just slower). Factor 1 restores
// healthy service; factors below 1 panic, since a fault cannot make
// hardware faster.
func (d *Disk) SetSlowFactor(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("device %q: slow factor %v below 1", d.params.Name, factor))
	}
	d.slow = factor
}

// SlowFactor returns the current service-time multiplier (1 when
// healthy).
func (d *Disk) SlowFactor() float64 {
	if d.slow < 1 {
		return 1
	}
	return d.slow
}

// scaled applies the slow factor to a service time, counting the
// degraded operations so reports can show how much work ran slow.
func (d *Disk) scaled(t sim.Duration) sim.Duration {
	if d.slow <= 1 {
		return t
	}
	d.rec.Add(kSlowedOps, 1)
	return sim.Duration(float64(t) * d.slow)
}

// rotLatency is the average rotational latency: half a revolution.
func (d *Disk) rotLatency() sim.Duration {
	revNs := 60.0 * 1e9 / float64(d.params.RPM)
	return sim.Duration(revNs / 2)
}

// positioning returns the head-positioning cost for an access at off,
// and whether the access continues a sequential run.
func (d *Disk) positioning(off int64, write bool) (sim.Duration, bool) {
	if off == d.nextSeq {
		return 0, true
	}
	// Near misses (within ~1 MB) cost a track-to-track seek; anything
	// farther costs an average seek. Both normally pay rotational
	// latency; writes into a write-back cache skip it (the drive
	// acknowledges immediately and schedules the media write itself).
	dist := off - d.nextSeq
	if dist < 0 {
		dist = -dist
	}
	var t sim.Duration
	if dist <= 1<<20 {
		t = d.params.SeekTrack
	} else {
		t = d.params.SeekAvg
	}
	if write && d.params.WriteCache {
		return t, false
	}
	return t + d.rotLatency(), false
}

func (d *Disk) xfer(n int64) sim.Duration {
	return sim.Duration(float64(n) / d.params.TransferRate * 1e9)
}

func (d *Disk) checkRange(off, n int64, op string) {
	if off < 0 || n < 0 || off+n > d.params.Capacity {
		panic(fmt.Sprintf("device %q: %s out of range: off=%d n=%d cap=%d",
			d.params.Name, op, off, n, d.params.Capacity))
	}
}

// ReadAt services a read of n bytes at off.
func (d *Disk) ReadAt(r *ioreq.Request, off, n int64) {
	d.checkRange(off, n, "read")
	r.Enter(d.rec)
	defer r.Exit()
	d.tagSlow(r)
	p := r.Proc()
	d.res.Acquire(p, 1)
	pos, seq := d.positioning(off, false)
	t := d.scaled(d.params.CmdOverhead + pos + d.xfer(n))
	p.Sleep(t)
	d.afterOp(off, n, seq, false, t)
	d.res.Release(1)
}

// WriteAt services a write of n bytes at off.
func (d *Disk) WriteAt(r *ioreq.Request, off, n int64) {
	d.checkRange(off, n, "write")
	r.Enter(d.rec)
	defer r.Exit()
	d.tagSlow(r)
	p := r.Proc()
	d.res.Acquire(p, 1)
	pos, seq := d.positioning(off, true)
	t := d.scaled(d.params.CmdOverhead + pos + d.xfer(n))
	p.Sleep(t)
	if d.params.WriteCache {
		d.dirty += n
	}
	d.afterOp(off, n, seq, true, t)
	d.res.Release(1)
}

func (d *Disk) afterOp(off, n int64, seq, write bool, t sim.Duration) {
	d.nextSeq = off + n
	if seq {
		d.rec.Add(kSeqOps, 1)
	} else {
		d.rec.Add(kRandomOps, 1)
	}
	if write {
		d.rec.Observe(telemetry.ClassWrite, 1, n, t)
	} else {
		d.rec.Observe(telemetry.ClassRead, 1, n, t)
	}
}

// Flush drains the volatile write cache. WriteAt already charges media
// transfer time (sustained throughput cannot exceed the media rate even
// with a cache — the cache only hides positioning), so a flush costs a
// single rotational latency as a barrier while the final destage
// completes.
func (d *Disk) Flush(r *ioreq.Request) {
	if d.dirty == 0 {
		return
	}
	r.Enter(d.rec)
	defer r.Exit()
	d.tagSlow(r)
	p := r.Proc()
	d.res.Acquire(p, 1)
	t := d.scaled(d.rotLatency())
	p.Sleep(t)
	d.rec.Observe(telemetry.ClassMeta, 1, 0, t)
	d.dirty = 0
	d.res.Release(1)
}

// tagSlow marks requests serviced while the drive is degraded.
func (d *Disk) tagSlow(r *ioreq.Request) {
	if d.slow > 1 {
		r.Tag("slow_disk")
	}
}

// Utilization reports the fraction of simulated time the disk was busy.
func (d *Disk) Utilization() float64 { return d.res.Utilization() }
