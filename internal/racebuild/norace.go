//go:build !race

// Package racebuild reports whether the race detector is compiled in.
// Allocation pins read it: in a race build sync.Pool drops a quarter
// of its Puts on purpose, so an object recycled through a pool is
// allocated anew about once in four uses, and a pin that holds at 0
// in a normal build must allow that.
package racebuild

// Enabled is true in a build with -race.
const Enabled = false
