package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on is shared, and its speed swings by a
// fifth within a minute: a repeated sim-repair-48 run read from 62 to 104
// s/s over 100 seconds on unchanged code. A fixed reference kernel run
// between the timed runs swings with it, so the untraced runs divide their
// timings by the kernel's slowdown against refNominalNs. The kernel is the
// benchmark's own code, so a change to the program moves the timed runs
// and not the kernel.

// refNominalNs is the kernel's time per op on one thread of the 2-vCPU
// machine the benchmark was built on, at its usual speed. It only sets the
// scale: a timing divided by the slowdown reads as on that machine.
const refNominalNs = 250.0

// refChunk is the ops the kernel runs between clock reads.
const refChunk = 1 << 14

// refKernel mixes the operations the simulator spends its time on: map
// inserts, lookups and deletes, a binary heap's sift-up and sift-down, and
// scattered writes over a buffer larger than the caches. Its state is
// allocated before the clock starts, so the timed ops allocate nothing,
// and dropped after, so the runs' heap peaks do not include it.
type refKernel struct {
	m   map[uint64]uint64
	h   []uint64
	buf []uint64
	x   uint64
}

const (
	refKeys   = 1 << 16
	refHeap   = 1 << 12
	refBufLen = 1 << 20
)

func newRefKernel(seed uint64) *refKernel {
	k := &refKernel{
		m:   make(map[uint64]uint64, refKeys),
		h:   make([]uint64, 0, refHeap+1),
		buf: make([]uint64, refBufLen),
		x:   seed | 1,
	}
	// Fault the buffer's pages in and fill the map and heap, so the
	// timed ops find the kernel's steady state.
	for i := range k.buf {
		k.buf[i] = uint64(i)
	}
	k.run(2 * refKeys)
	return k
}

// run does n ops.
func (k *refKernel) run(n int) {
	x, h := k.x, k.h
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := x % refKeys
		if _, ok := k.m[key]; ok {
			delete(k.m, key)
		} else {
			k.m[key] = x
		}
		k.buf[(x>>24)%refBufLen] += x
		h = append(h, x)
		for j := len(h) - 1; j > 0 && h[(j-1)/2] > h[j]; j = (j - 1) / 2 {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
		}
		if len(h) > refHeap {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			for j := 0; ; {
				c := 2*j + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] < h[c] {
					c++
				}
				if h[j] <= h[c] {
					break
				}
				h[j], h[c] = h[c], h[j]
				j = c
			}
		}
	}
	k.x, k.h = x, h
}

// refGauge times the kernel between the timed runs of one measurement.
// It runs one thread even beside the laned engine's workers: on both
// vCPUs at once the kernel's threads contend with each other, and their
// time per op spread three times as far as the simulation's speed.
type refGauge struct {
	elapsed time.Duration
	ops     int
}

// measure runs a fresh kernel until d has passed. A collection first
// clears the run's garbage, so no GC cycle overlaps the timed ops.
func (g *refGauge) measure(d time.Duration) {
	k := newRefKernel(uint64(g.ops) + 0x9e3779b97f4a7c15)
	runtime.GC()
	t := time.Now()
	deadline := t.Add(d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		k.run(refChunk)
		g.ops += refChunk
	}
	g.elapsed += time.Since(t)
}

// slowdown is the kernel's time per op over refNominalNs: above 1 when
// the machine ran slower than usual.
func (g *refGauge) slowdown() float64 {
	return float64(g.elapsed.Nanoseconds()) / float64(g.ops) / refNominalNs
}
