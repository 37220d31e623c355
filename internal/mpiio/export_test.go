package mpiio

import "ioeval/internal/fs"

// PlanCollective runs the two-phase planner over every rank's vectors,
// as the last rank to reach a collective does, and returns the plan's
// total bytes. It lets the external test package feed the planner
// vectors from workload generators, which import this package.
func PlanCollective(f *File, vecs [][]fs.IOVec) int64 {
	c := &collOp{vecs: vecs, write: true}
	c.computePlan(f)
	return c.totalBytes
}
