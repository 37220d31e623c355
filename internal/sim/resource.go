package sim

import "fmt"

// Resource models a server with a fixed number of capacity units and a
// FIFO queue: the simulation analogue of a counting semaphore. Disks,
// network links, NFS server threads and similar contended components
// are modeled as Resources.
type Resource struct {
	eng      *Engine
	name     string
	capacity int64
	inUse    int64
	queue    []claim // waiting claims; queue[qhead:] in FIFO order
	qhead    int

	// statistics
	busy      Duration // capacity-unit-weighted busy time
	lastStamp Time
	acquires  int64
	waited    Duration
}

// claim is a waiting Acquire. Claims are held by value in a queue
// that reuses its backing array, so a warm contended Acquire
// allocates nothing.
type claim struct {
	n int64
	p *Proc
}

// NewResource creates a resource with the given capacity (units are
// caller-defined: disk spindles, link slots, server threads, ...).
func NewResource(e *Engine, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the currently held units.
func (r *Resource) InUse() int64 { return r.inUse }

func (r *Resource) stamp() {
	now := r.eng.now
	r.busy += Duration(now-r.lastStamp) * Duration(r.inUse)
	r.lastStamp = now
}

// Acquire blocks p until n units are available and claims them. Claims
// are granted strictly FIFO; a large claim at the head blocks smaller
// ones behind it (no starvation).
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of %d", r.name, n, r.capacity))
	}
	r.acquires++
	if r.qhead == len(r.queue) && r.inUse+n <= r.capacity {
		r.stamp()
		r.inUse += n
		return
	}
	if r.qhead > 0 && len(r.queue) == cap(r.queue) {
		// Slide the waiting claims to the front instead of growing.
		k := copy(r.queue, r.queue[r.qhead:])
		clear(r.queue[k:])
		r.queue, r.qhead = r.queue[:k], 0
	}
	t0 := p.Now()
	r.queue = append(r.queue, claim{n: n, p: p})
	p.park()
	r.waited += Duration(p.Now() - t0)
}

// Release returns n units and grants queued claims in FIFO order.
// It may be called from any event or process context.
func (r *Resource) Release(n int64) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: resource %q: release %d with %d in use", r.name, n, r.inUse))
	}
	r.stamp()
	r.inUse -= n
	for r.qhead < len(r.queue) {
		head := r.queue[r.qhead]
		if r.inUse+head.n > r.capacity {
			break
		}
		r.queue[r.qhead] = claim{}
		if r.qhead++; r.qhead == len(r.queue) {
			r.queue, r.qhead = r.queue[:0], 0
		}
		r.stamp()
		r.inUse += head.n
		head.p.wakeNow()
	}
}

// Use acquires n units, sleeps for hold, and releases: the common
// "occupy a server for a service time" pattern.
func (r *Resource) Use(p *Proc, n int64, hold Duration) {
	r.Acquire(p, n)
	p.Sleep(hold)
	r.Release(n)
}

// Utilization returns the average fraction of capacity in use between
// simulation start and the current time (0 if no time has passed).
func (r *Resource) Utilization() float64 {
	r.stamp()
	if r.eng.now == 0 {
		return 0
	}
	return float64(r.busy) / (float64(r.eng.now) * float64(r.capacity))
}

// TotalWait returns the cumulative time claims spent queued.
func (r *Resource) TotalWait() Duration { return r.waited }

// Acquires returns the number of Acquire calls made so far.
func (r *Resource) Acquires() int64 { return r.acquires }
