package cache

import (
	"ioeval/internal/device"
	"ioeval/internal/ioreq"
)

var _ device.RunDev = (*Cache)(nil)

// ReadRuns implements device.RunDev: it services many extents with
// page-granular hit/miss logic but charges only one memory-copy sleep
// and issues merged device reads for the missing pages. This keeps
// the event count proportional to the number of *distinct missing
// page runs*, not the number of application operations.
func (c *Cache) ReadRuns(r *ioreq.Request, runs []device.Run) {
	if len(runs) == 0 {
		return
	}
	r.PushOn(c.rec)
	defer r.Pop()
	c.Stats.ReadOps += int64(len(runs))
	ps := c.params.PageSize

	// Stream detection for read-ahead: the batch continues the
	// previous read and is itself contiguous and ascending.
	streaming := runs[0].Off == c.lastReadEnd
	for i := 1; i < len(runs); i++ {
		if runs[i].Off != runs[i-1].Off+runs[i-1].Len {
			streaming = false
			break
		}
	}
	lastRun := runs[len(runs)-1]
	c.lastReadEnd = lastRun.Off + lastRun.Len

	// Collect the missing page runs of every run, counting hit and miss
	// bytes per run against resident pages.
	sc := c.takeScratch()
	defer c.putScratch(sc)
	var totalBytes int64
	for _, run := range runs {
		if run.Len == 0 {
			continue
		}
		totalBytes += run.Len
		first, last := c.pageRange(run.Off, run.Len)
		var missed bool
		if sc.runs, missed = c.appendMissing(sc.runs, first, last); missed {
			c.Stats.MissBytes += run.Len
		} else {
			c.Stats.HitBytes += run.Len
		}
	}

	// Two runs can share a page, and runs need not come in order: merge
	// the missing runs into an ascending cover of distinct pages.
	if !ioreq.IsSorted(sc.runs) {
		ioreq.Sort(sc.runs)
	}
	if devRuns := ioreq.Merge(sc.runs); len(devRuns) > 0 {
		// Insert as resident before the fetch (models page I/O locking),
		// turning each missing run into the device read that fetches it.
		for i, mr := range devRuns {
			c.insert(r, mr.Off, mr.End(), false)
			off := mr.Off * ps
			devRuns[i] = device.Run{Off: off, Len: min(mr.Len*ps, c.under.Capacity()-off)}
		}
		// Streaming batches extend the final fetch by the read-ahead
		// window.
		if streaming && c.params.ReadAhead > 0 {
			lastDev := &devRuns[len(devRuns)-1]
			if lastDev.Off+lastDev.Len >= lastRun.Off+lastRun.Len {
				extend := c.params.ReadAhead
				if lastDev.Off+lastDev.Len+extend > c.under.Capacity() {
					extend = c.under.Capacity() - lastDev.Off - lastDev.Len
				}
				if extend > 0 {
					first, last := c.pageRange(lastDev.Off+lastDev.Len, extend)
					c.insert(r, first, last, false)
					lastDev.Len += extend
					c.Stats.ReadAheadBytes += extend
				}
			}
		}
		device.ReadRuns(r, c.under, devRuns)
	}
	c.memCopy(r.Proc(), totalBytes)
}

// WriteRuns implements device.RunDev: pages covering all runs are
// dirtied (or written through) with a single memory-copy charge and a
// single throttle check.
func (c *Cache) WriteRuns(r *ioreq.Request, runs []device.Run) {
	if len(runs) == 0 {
		return
	}
	r.PushOn(c.rec)
	defer r.Pop()
	c.Stats.WriteOps += int64(len(runs))
	var totalBytes int64
	dirty := c.params.Policy == WriteBack
	for _, run := range runs {
		if run.Len == 0 {
			continue
		}
		totalBytes += run.Len
		first, last := c.pageRange(run.Off, run.Len)
		c.insert(r, first, last, dirty)
	}
	c.memCopy(r.Proc(), totalBytes)
	if dirty {
		c.throttle(r)
		return
	}
	// Write-through: push the runs, merged in the call's scratch.
	sc := c.takeScratch()
	defer c.putScratch(sc)
	sc.out = append(sc.out, runs...)
	ioreq.Sort(sc.out)
	device.WriteRuns(r, c.under, ioreq.Merge(sc.out))
}
