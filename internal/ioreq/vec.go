package ioreq

import "sort"

// Vec is one extent of a vectored request: a half-open byte range
// [Off, Off+Len). It is the single offset/length bookkeeping type of
// the whole stack: fs.IOVec and device.Run are aliases of it, so
// vectors flow from the MPI-IO library down to the disks without the
// per-layer conversion loops the stack used to carry.
type Vec struct {
	Off, Len int64
}

// End returns the exclusive upper bound of the extent.
func (v Vec) End() int64 { return v.Off + v.Len }

// Total returns the summed length of all extents.
func Total(vecs []Vec) int64 {
	var n int64
	for _, v := range vecs {
		n += v.Len
	}
	return n
}

// Sort orders extents by ascending offset (stable not required: equal
// offsets cannot both carry data in a well-formed vector).
func Sort(vecs []Vec) {
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].Off < vecs[j].Off })
}

// Merge coalesces sorted extents that overlap or touch, returning a
// minimal cover. Input must be sorted by Off; the result aliases the
// input's backing array.
func Merge(vecs []Vec) []Vec {
	if len(vecs) <= 1 {
		return vecs
	}
	out := vecs[:1]
	for _, v := range vecs[1:] {
		out = AppendMerged(out, v)
	}
	return out
}

// AppendMerged adds v to the merged cover out, whose last extent must
// not start after v: v extends that extent when it overlaps or touches
// it, and is appended otherwise. Folding sorted extents through it one
// at a time builds the same cover Merge returns, without first
// materialising the unmerged vector.
func AppendMerged(out []Vec, v Vec) []Vec {
	if k := len(out) - 1; k >= 0 && v.Off <= out[k].End() {
		if end := v.End(); end > out[k].End() {
			out[k].Len = end - out[k].Off
		}
		return out
	}
	return append(out, v)
}
