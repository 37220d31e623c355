package main

import (
	"runtime"
	"sort"
	"time"
)

// Calibration. The benchmark's host is shared, and its speed drifts by
// ±20% over minutes, moving CPU time as much as wall time. Timing a
// fixed reference right before and right after each measurement and
// scaling by refNominal over it reports times in seconds of a host on
// which the reference takes refNominal.

// refNominal fixes the scale of calibrated times: roughly the
// reference's median time, in seconds, on the 2-vCPU host the
// benchmark was defined on (80–87 ms there).
const refNominal = 0.080

type refNode struct {
	key  int64
	next *refNode
	pad  [4]int64
}

var refSink int

// referenceOnce runs a fixed mix of the work the simulator's host cost
// is made of: small allocations, map inserts and deletes, goroutine
// handoffs over unbuffered channels, sorting. It lives in the
// benchmark so no change to the program can speed it up. It starts
// from a collected heap, so the program's garbage does not change its
// cost, and returns its wall time in seconds.
func referenceOnce() float64 {
	runtime.GC()
	t0 := time.Now()
	m := make(map[int64]*refNode)
	var head *refNode
	for i := int64(0); i < 120000; i++ {
		n := &refNode{key: i * 7919 % 100003, next: head}
		head = n
		m[n.key] = n
		if i%3 == 0 {
			delete(m, (i-3)*7919%100003)
		}
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	sum := 0
	for i := 0; i < 30000; i++ {
		ping <- i
		sum += <-pong
	}
	close(ping)
	for range pong {
	}
	xs := make([]int64, 120000)
	for i := range xs {
		xs[i] = int64(i) * 2654435761 % 1000003
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	refSink = len(m) + sum + int(xs[len(xs)/2]) + int(head.key)
	return time.Since(t0).Seconds()
}

// reference is the median time of five reference runs.
func reference() float64 {
	times := make([]float64, 5)
	for i := range times {
		times[i] = referenceOnce()
	}
	return median(times)
}
