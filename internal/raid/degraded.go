package raid

import (
	"fmt"

	"ioeval/internal/ioreq"
)

// Degraded-mode operation: redundant arrays keep serving after a
// member failure, at a cost — RAID 5 reconstructs every block of the
// failed member by reading the whole row from the survivors; RAID 1
// loses its read balancing. The methodology can characterize a
// degraded configuration like any other and quantify the price of
// running exposed.

// Fail marks a member as failed. Redundant levels (RAID 1, RAID 5)
// continue in degraded mode; failing a second member of a RAID 5, the
// mirror of a two-disk RAID 1, or any member of a JBOD/RAID 0 is data
// loss and panics.
func (a *Array) Fail(member int) {
	if member < 0 || member >= len(a.members) {
		panic(fmt.Sprintf("raid %q: no member %d", a.name, member))
	}
	if a.failed == nil {
		a.failed = make(map[int]bool)
	}
	switch a.level {
	case JBOD, RAID0:
		panic(fmt.Sprintf("raid %q: %v has no redundancy — member failure is data loss", a.name, a.level))
	case RAID1:
		if len(a.failed) >= len(a.members)-1 {
			panic(fmt.Sprintf("raid %q: no surviving mirror", a.name))
		}
	case RAID5:
		if len(a.failed) >= 1 {
			panic(fmt.Sprintf("raid %q: second failure on RAID 5 is data loss", a.name))
		}
	}
	a.failed[member] = true
}

// Degraded reports whether the array has failed members.
func (a *Array) Degraded() bool { return len(a.failed) > 0 }

// healthyMirror returns a mirror that is not failed.
func (a *Array) healthyMirror() int {
	for i := range a.members {
		if !a.failed[i] {
			return i
		}
	}
	panic(fmt.Sprintf("raid %q: no healthy members", a.name))
}

// degradedRead serves one segment whose home disk failed.
func (a *Array) degradedRead(r *ioreq.Request, s segment) {
	switch a.level {
	case RAID1:
		a.members[a.healthyMirror()].ReadAt(r, s.off, s.len)
	case RAID5:
		// Reconstruct: read the same extent from every survivor (the
		// row's other data chunks and its parity), XOR is free.
		a.readSurvivors(r, s.disk, s.off, s.len, "reconstruct")
	default:
		panic(fmt.Sprintf("raid %q: read from failed member of %v", a.name, a.level))
	}
}

// readSurvivors reads [off, off+n) from every healthy member other
// than skip, in parallel on processes named label. The call runs on
// a scratch of its own: it may be inside a forked child of a call
// that holds one.
func (a *Array) readSurvivors(r *ioreq.Request, skip int, off, n int64, label string) {
	sc := a.takeScratch()
	defer a.putScratch(sc)
	a.eachSurvivor(sc, skip, off, n)
	a.fanOut(r, sc, false, label)
}

// degradedWrite handles one segment whose home disk failed: the data
// is represented by the row's parity (written by the caller's plan),
// so the member write itself is dropped. For RAID 1 the write simply
// skips the failed mirror (the caller writes the survivors).
func (a *Array) degradedWrite(r *ioreq.Request, s segment) {
	switch a.level {
	case RAID1, RAID5:
		// No device work: survivors/parity carry the information.
	default:
		panic(fmt.Sprintf("raid %q: write to failed member of %v", a.name, a.level))
	}
}
