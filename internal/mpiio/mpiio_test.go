package mpiio

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ioeval/internal/cache"
	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/netsim"
	"ioeval/internal/nfs"
	"ioeval/internal/sim"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// testCluster: nRanks ranks over nNodes nodes, each node with an NFS
// client to a shared server, plus a world on a comm network.
type testCluster struct {
	eng    *sim.Engine
	world  *World
	mounts []fs.Interface
	srv    *nfs.Server
}

func newTestCluster(nNodes, nRanks int) *testCluster {
	e := sim.NewEngine()
	data := netsim.New(e, netsim.GigabitEthernet("data"))
	comm := netsim.New(e, netsim.GigabitEthernet("comm"))
	data.Attach("ionode")
	d := device.NewDisk(e, device.DefaultSATA("sd", 917*gb, 100e6))
	pc := cache.New(e, cache.DefaultParams("srv-pc", 2*gb), d)
	backend := fs.NewMount(e, fs.DefaultMountParams("ext4"), pc)
	srv := nfs.NewServer(e, nfs.DefaultServerParams("nfs"), "ionode", data, backend)

	clients := make([]*nfs.Client, nNodes)
	for i := 0; i < nNodes; i++ {
		node := fmt.Sprintf("n%d", i)
		data.Attach(node)
		comm.Attach(node)
		clients[i] = nfs.NewClient(e, nfs.DefaultClientParams("nfs"), node, data, srv)
	}
	rankNodes := make([]string, nRanks)
	mounts := make([]fs.Interface, nRanks)
	for r := 0; r < nRanks; r++ {
		rankNodes[r] = fmt.Sprintf("n%d", r%nNodes)
		mounts[r] = clients[r%nNodes]
	}
	return &testCluster{
		eng:    e,
		world:  NewWorld(e, comm, rankNodes),
		mounts: mounts,
		srv:    srv,
	}
}

// runRanks spawns fn once per rank and runs to completion.
func (tc *testCluster) runRanks(fn func(p *sim.Proc, rank int)) sim.Time {
	for r := 0; r < tc.world.Size(); r++ {
		r := r
		tc.eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { fn(p, r) })
	}
	return tc.eng.Run()
}

func TestBarrierSynchronizes(t *testing.T) {
	tc := newTestCluster(4, 8)
	var after []sim.Time
	tc.runRanks(func(p *sim.Proc, rank int) {
		p.Sleep(sim.Duration(rank) * sim.Millisecond) // skew arrival
		tc.world.Barrier(p, rank)
		after = append(after, p.Now())
	})
	for _, ts := range after {
		if ts < sim.Time(7*sim.Millisecond) {
			t.Fatalf("rank left barrier at %v, before last arrival", sim.Duration(ts))
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	tc := newTestCluster(2, 4)
	counts := make([]int, 4)
	tc.runRanks(func(p *sim.Proc, rank int) {
		for i := 0; i < 3; i++ {
			tc.world.Barrier(p, rank)
			counts[rank]++
		}
	})
	for r, c := range counts {
		if c != 3 {
			t.Fatalf("rank %d passed %d barriers", r, c)
		}
	}
}

func TestIndependentWriteRead(t *testing.T) {
	tc := newTestCluster(2, 4)
	f := OpenFile(tc.world, "/shared", fs.OWrite|fs.ORead|fs.OCreate, tc.mounts, Hints{})
	tc.runRanks(func(p *sim.Proc, rank int) {
		if err := f.Open(p, rank); err != nil {
			t.Errorf("rank %d open: %v", rank, err)
			return
		}
		off := int64(rank) * mb
		if n := f.WriteAt(p, rank, off, mb); n != mb {
			t.Errorf("rank %d wrote %d", rank, n)
		}
		tc.world.Barrier(p, rank)
		if n := f.ReadAt(p, rank, off, mb); n != mb {
			t.Errorf("rank %d read %d", rank, n)
		}
		f.Close(p, rank)
	})
	if got := tc.srv.Telemetry().Snapshot().Counters.Write.Bytes; got != 4*mb {
		t.Fatalf("server wrote %d, want 4MB", got)
	}
}

func TestCollectiveWriteAggregatesData(t *testing.T) {
	tc := newTestCluster(4, 8)
	f := OpenFile(tc.world, "/coll", fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
	if len(f.Aggregators()) != 4 {
		t.Fatalf("aggregators = %v, want one per node", f.Aggregators())
	}
	tc.runRanks(func(p *sim.Proc, rank int) {
		f.Open(p, rank)
		// Each rank contributes a 1 MB strided slice of an 8 MB region.
		off := int64(rank) * mb
		f.WriteAtAll(p, rank, off, mb)
		f.Close(p, rank)
	})
	// All 8 MB must have reached the server, written only by the
	// aggregator ranks in large chunks.
	if got := tc.srv.Telemetry().Snapshot().Counters.Write.Bytes; got != 8*mb {
		t.Fatalf("server wrote %d, want 8MB", got)
	}
	// 4 aggregators × 2 MB partitions in 16 MB buffers ⇒ exactly 4
	// write batches (one WriteVec per partition per round).
	if got := tc.srv.Telemetry().Snapshot().Counters.Write.Ops; got > 4*8+4 {
		t.Fatalf("write RPCs = %d, want few large writes", got)
	}
}

func TestCollectiveReadBack(t *testing.T) {
	tc := newTestCluster(4, 8)
	f := OpenFile(tc.world, "/coll", fs.ORead|fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
	var got [8]int64
	tc.runRanks(func(p *sim.Proc, rank int) {
		f.Open(p, rank)
		f.WriteAtAll(p, rank, int64(rank)*mb, mb)
		tc.world.Barrier(p, rank)
		got[rank] = f.ReadAtAll(p, rank, int64(rank)*mb, mb)
		f.Close(p, rank)
	})
	for r, n := range got {
		if n != mb {
			t.Fatalf("rank %d collective read returned %d", r, n)
		}
	}
}

func TestCollectiveFasterThanTinyIndependents(t *testing.T) {
	// The paper's core contrast: the same region written as (a) a
	// collective with large aggregated chunks vs (b) independent tiny
	// strided records.
	const nRanks = 8
	region := int64(nRanks) * 4 * mb

	collTime := func() sim.Time {
		tc := newTestCluster(4, nRanks)
		f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
		return tc.runRanks(func(p *sim.Proc, rank int) {
			f.Open(p, rank)
			f.WriteAtAll(p, rank, int64(rank)*region/nRanks, region/nRanks)
			f.Close(p, rank)
		})
	}()

	indepTime := func() sim.Time {
		tc := newTestCluster(4, nRanks)
		f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, Hints{})
		return tc.runRanks(func(p *sim.Proc, rank int) {
			f.Open(p, rank)
			rec := int64(1600)
			var vecs []fs.IOVec
			base := int64(rank) * region / nRanks
			for o := int64(0); o+rec <= region/nRanks; o += rec {
				vecs = append(vecs, fs.IOVec{Off: base + o, Len: rec})
			}
			f.WriteVec(p, rank, vecs)
			f.Close(p, rank)
		})
	}()

	if indepTime < 3*collTime {
		t.Fatalf("independent tiny writes (%v) not ≫ collective (%v)",
			sim.Duration(indepTime), sim.Duration(collTime))
	}
}

func TestCollectiveBufferingOffDegradesToIndependent(t *testing.T) {
	tc := newTestCluster(2, 4)
	hints := Hints{CollectiveBuffering: false}
	f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, hints)
	tc.runRanks(func(p *sim.Proc, rank int) {
		f.Open(p, rank)
		f.WriteVecAll(p, rank, []fs.IOVec{{Off: int64(rank) * mb, Len: mb}})
		f.Close(p, rank)
	})
	if got := tc.srv.Telemetry().Snapshot().Counters.Write.Bytes; got != 4*mb {
		t.Fatalf("server wrote %d", got)
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	tc := newTestCluster(2, 4)
	var evs []Event
	tc.world.SetTracer(recorderFunc(func(ev Event) { evs = append(evs, ev) }))
	f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
	tc.runRanks(func(p *sim.Proc, rank int) {
		f.Open(p, rank)
		tc.world.Compute(p, rank, sim.Millisecond)
		f.WriteAt(p, rank, int64(rank)*kb, kb)
		f.WriteAtAll(p, rank, int64(rank)*mb, mb)
		f.Close(p, rank)
	})
	var opens, writes, collWrites, computes int
	for _, ev := range evs {
		switch ev.Op {
		case OpOpen:
			opens++
		case OpWrite:
			writes++
		case OpWriteAll:
			collWrites++
		case OpCompute:
			computes++
		}
		if ev.T1 < ev.T0 {
			t.Fatalf("event with negative duration: %+v", ev)
		}
	}
	if opens != 4 || writes != 4 || collWrites != 4 || computes != 4 {
		t.Fatalf("event counts: opens=%d writes=%d coll=%d comp=%d",
			opens, writes, collWrites, computes)
	}
}

type recorderFunc func(Event)

func (f recorderFunc) Record(ev Event) { f(ev) }

func TestSendTracksBytes(t *testing.T) {
	tc := newTestCluster(2, 2)
	var evs []Event
	tc.world.SetTracer(recorderFunc(func(ev Event) { evs = append(evs, ev) }))
	tc.runRanks(func(p *sim.Proc, rank int) {
		if rank == 0 {
			tc.world.Send(p, 0, 1, 5*mb)
		}
	})
	if len(evs) != 1 || evs[0].Op != OpComm || evs[0].Bytes != 5*mb {
		t.Fatalf("events = %+v", evs)
	}
}

func TestUseBeforeOpenPanics(t *testing.T) {
	tc := newTestCluster(1, 1)
	f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, Hints{})
	tc.eng.Spawn("r", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f.WriteAt(p, 0, 0, 1)
	})
	tc.eng.Run()
}

func TestCollectivePartitionCoversEverything(t *testing.T) {
	// Whatever the rank contribution pattern, the aggregator partitions
	// must cover exactly the union of contributions.
	tc := newTestCluster(4, 8)
	f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
	c := &collOp{vecs: make([][]fs.IOVec, 8), write: true}
	for r := 0; r < 8; r++ {
		// Interleaved strided contributions with overlaps at edges.
		for k := int64(0); k < 5; k++ {
			c.vecs[r] = append(c.vecs[r], fs.IOVec{Off: k*800*kb + int64(r)*100*kb, Len: 100 * kb})
		}
	}
	c.computePlan(f)
	var partTotal int64
	for _, pt := range c.parts {
		partTotal += pt.size
	}
	if partTotal != c.totalBytes || c.totalBytes != 4000*kb {
		t.Fatalf("partition total %d vs union %d (want %d)", partTotal, c.totalBytes, 4000*kb)
	}
}

// refCover is the reference cover: concatenate every rank's extents,
// sort the concatenation, fold it.
func refCover(vecs [][]fs.IOVec) []fs.IOVec {
	var all []fs.IOVec
	for _, vs := range vecs {
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	var merged []fs.IOVec
	for _, v := range all {
		if v.Len > 0 {
			merged = ioreq.AppendMerged(merged, v)
		}
	}
	return merged
}

// randomRankVecs draws one rank's extents on a coarse grid, so
// zero-length, overlapping and touching extents and duplicate offsets
// are all common; a seventh of the ranks are empty and half the rest
// unsorted.
func randomRankVecs(rng *rand.Rand) []fs.IOVec {
	if rng.Intn(7) == 0 {
		return nil
	}
	vs := make([]fs.IOVec, rng.Intn(40)+1)
	for i := range vs {
		switch {
		case i > 0 && rng.Intn(8) == 0:
			vs[i] = vs[rng.Intn(i)] // exact duplicate
		default:
			vs[i] = fs.IOVec{Off: 64 * rng.Int63n(64), Len: 64*rng.Int63n(4) + rng.Int63n(2)*rng.Int63n(64)}
		}
	}
	if rng.Intn(2) == 0 {
		ioreq.Sort(vs)
	}
	return vs
}

func TestCollectivePlanMatchesSortedConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		nRanks := []int{1, 64, 1 + rng.Intn(16)}[trial%3]
		vecs := make([][]fs.IOVec, nRanks)
		before := make([][]fs.IOVec, nRanks)
		for r := range vecs {
			vecs[r] = randomRankVecs(rng)
			before[r] = slices.Clone(vecs[r])
		}
		aggs := make([]int, 1+rng.Intn(min(nRanks, 8)))
		for i := range aggs {
			aggs[i] = i
		}
		f := &File{aggs: aggs}

		cover := refCover(vecs)
		want := &collOp{}
		want.partition(f, cover)
		got := &collOp{vecs: vecs}
		got.computePlan(f)

		if c := mergeCover(vecs); !slices.Equal(c, cover) {
			t.Fatalf("trial %d: cover %v, want %v", trial, c, cover)
		}
		if got.totalBytes != want.totalBytes || !reflect.DeepEqual(got.parts, want.parts) {
			t.Fatalf("trial %d: plan (%d, %v), want (%d, %v)", trial, got.totalBytes, got.parts, want.totalBytes, want.parts)
		}
		for r := range vecs {
			if !slices.Equal(vecs[r], before[r]) {
				t.Fatalf("trial %d: rank %d's list mutated: %v, was %v", trial, r, vecs[r], before[r])
			}
		}
	}
}

func BenchmarkCollectiveWrite(b *testing.B) {
	tc := newTestCluster(4, 8)
	f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
	for r := 0; r < 8; r++ {
		r := r
		tc.eng.Spawn("rank", func(p *sim.Proc) {
			f.Open(p, r)
			for i := 0; i < b.N; i++ {
				f.WriteAtAll(p, r, int64(r)*mb, mb)
			}
			f.Close(p, r)
		})
	}
	b.ResetTimer()
	tc.eng.Run()
}
