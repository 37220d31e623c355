//go:build race

package racebuild

// Enabled is true in a build with -race.
const Enabled = true
