package main

import (
	"fmt"

	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

// The null layers are the floor under a probed layer: they accept
// every request and charge no simulated time, so a probe's host cost
// is the probed layer's own.

// nullDev is a device.BlockDev that does nothing.
type nullDev struct{ capacity int64 }

var _ device.BlockDev = nullDev{}

func (nullDev) ReadAt(*ioreq.Request, int64, int64)  {}
func (nullDev) WriteAt(*ioreq.Request, int64, int64) {}
func (nullDev) Flush(*ioreq.Request)                 {}
func (d nullDev) Capacity() int64                    { return d.capacity }
func (nullDev) Name() string                         { return "null" }

// nullFS is an fs.Interface whose files accept every read and write.
type nullFS struct{}

var _ fs.Interface = nullFS{}

func (nullFS) Open(_ *ioreq.Request, path string, _ int) (fs.Handle, error) {
	return &nullFile{path: path}, nil
}
func (nullFS) Remove(*ioreq.Request, string) error { return nil }
func (nullFS) Stat(_ *ioreq.Request, path string) (fs.FileInfo, error) {
	return fs.FileInfo{Path: path}, nil
}
func (nullFS) Sync(*ioreq.Request) {}
func (nullFS) Name() string        { return "nullfs" }

// nullFile is a handle of nullFS; it tracks only the file size.
type nullFile struct {
	path string
	size int64
}

func (f *nullFile) grow(end int64) {
	if end > f.size {
		f.size = end
	}
}

func (f *nullFile) ReadAt(_ *ioreq.Request, _, n int64) int64 { return n }
func (f *nullFile) WriteAt(_ *ioreq.Request, off, n int64) int64 {
	f.grow(off + n)
	return n
}
func (f *nullFile) ReadVec(_ *ioreq.Request, vecs []fs.IOVec) int64 { return ioreq.Total(vecs) }
func (f *nullFile) WriteVec(_ *ioreq.Request, vecs []fs.IOVec) int64 {
	for _, v := range vecs {
		f.grow(v.End())
	}
	return ioreq.Total(vecs)
}
func (f *nullFile) Size() int64          { return f.size }
func (f *nullFile) Sync(*ioreq.Request)  {}
func (f *nullFile) Close(*ioreq.Request) {}
func (f *nullFile) Path() string         { return f.path }

// checkNullLayers proves the null layers charge no simulated time:
// one request of every kind through each leaves the clock at zero.
func checkNullLayers() error {
	e := sim.NewEngine()
	e.Spawn("null", func(p *sim.Proc) {
		r := ioreq.Writer(p)
		d := nullDev{capacity: 1 << 30}
		d.WriteAt(r, 0, 1<<20)
		d.ReadAt(r, 0, 1<<20)
		d.Flush(r)
		h, _ := nullFS{}.Open(r, "/f", fs.OWrite|fs.OCreate)
		vecs := []fs.IOVec{{Off: 0, Len: 4 << 10}, {Off: 8 << 10, Len: 4 << 10}}
		h.WriteAt(r, 0, 1<<20)
		h.ReadAt(r, 0, 1<<20)
		h.WriteVec(r, vecs)
		h.ReadVec(r, vecs)
		h.Sync(r)
		h.Close(r)
	})
	if end := e.Run(); end != 0 {
		return fmt.Errorf("null layers charged %v of simulated time", sim.Duration(end))
	}
	return nil
}
