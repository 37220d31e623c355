package cache

import (
	"sort"

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

	// Collect the missing page indices across all runs, counting hit
	// and miss bytes per run against resident pages.
	var missing []int64
	var totalBytes int64
	for _, run := range runs {
		if run.Len == 0 {
			continue
		}
		totalBytes += run.Len
		first, last := c.pageRange(run.Off, run.Len)
		allHit := true
		for idx := first; idx < last; idx++ {
			if pg, ok := c.pages[idx]; ok {
				c.touch(pg)
			} else {
				missing = append(missing, idx)
				allHit = false
			}
		}
		if allHit {
			c.Stats.HitBytes += run.Len
		} else {
			c.Stats.MissBytes += run.Len
		}
	}

	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		// Dedup (two runs can touch the same page).
		uniq := missing[:1]
		for _, idx := range missing[1:] {
			if idx != uniq[len(uniq)-1] {
				uniq = append(uniq, idx)
			}
		}
		// Insert as resident before the fetch (models page I/O locking),
		// then fetch merged runs from the device.
		var devRuns []device.Run
		for _, idx := range uniq {
			c.insert(r, idx, false)
			off := idx * ps
			n := ps
			if off+n > c.under.Capacity() {
				n = c.under.Capacity() - off
			}
			devRuns = ioreq.AppendMerged(devRuns, device.Run{Off: off, Len: n})
		}
		// Streaming batches extend the final fetch by the read-ahead
		// window.
		if streaming && c.params.ReadAhead > 0 && len(devRuns) > 0 {
			lastDev := &devRuns[len(devRuns)-1]
			if lastDev.Off+lastDev.Len >= lastRun.Off+lastRun.Len {
				extend := c.params.ReadAhead
				if lastDev.Off+lastDev.Len+extend > c.under.Capacity() {
					extend = c.under.Capacity() - lastDev.Off - lastDev.Len
				}
				if extend > 0 {
					first, last := c.pageRange(lastDev.Off+lastDev.Len, extend)
					for idx := first; idx < last; idx++ {
						c.insert(r, idx, false)
					}
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
		for idx := first; idx < last; idx++ {
			c.insert(r, idx, dirty)
		}
	}
	c.memCopy(r.Proc(), totalBytes)
	if dirty {
		c.throttle(r)
		return
	}
	// Write-through: push the merged runs to the device.
	sorted := append([]device.Run{}, runs...)
	ioreq.Sort(sorted)
	device.WriteRuns(r, c.under, ioreq.Merge(sorted))
}
