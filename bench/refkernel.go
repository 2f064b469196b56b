package main

import "time"

// The reference kernel measures how fast the machine runs right now.
//
// Host load moves every timing here by tens of percent over minutes (on a
// 2-vCPU VM one Fig8a body took 2.2 s in one minute and 3.3 s a few
// minutes later), which no statistic within one run can remove. The kernel
// does a fixed amount of work that uses no repository code, in the mix the
// simulator's hot paths stress: dependent loads over a cache-sized working
// set, map updates and small allocations. Dividing a body's times by the
// kernel's time, measured just before and after it, cancels most of the
// host's drift, and a change to the repository cannot move the kernel.
// (A working set far beyond the last-level cache tracked the simulator
// worse: DRAM latency swung the kernel by 2x while bodies moved 5%.)
const (
	refWords  = 1 << 18 // int32 links: 1 MiB
	refSteps  = 1 << 20 // dependent loads per chunk, about 20 ms
	refChunks = 5       // chunks per measurement; the median is kept
)

// refSink keeps the kernel's results live.
var refSink int

// runReference times refChunks chunks of the kernel and returns the
// median chunk time in seconds.
func runReference() float64 {
	n := int32(refWords)
	// One cycle through every word: i → i+stride (mod n) with an odd
	// stride near 0.618·n, so successive loads are far apart and the
	// prefetcher cannot run ahead of them.
	stride := int32(float64(n)*0.618) | 1
	next := make([]int32, n)
	for i := range next {
		next[i] = (int32(i) + stride) & (n - 1)
	}
	counts := make(map[int32]int32, 1<<13)
	times := make([]float64, refChunks)
	x := int32(0)
	for c := range times {
		t0 := time.Now()
		var keep [][]byte
		for i := 0; i < refSteps; i++ {
			x = next[x]
			counts[x&(1<<13-1)]++
			if i&31 == 0 {
				keep = append(keep, make([]byte, 48))
				if len(keep) == 1<<12 {
					keep = keep[:0]
				}
			}
		}
		times[c] = time.Since(t0).Seconds()
		refSink += len(keep)
	}
	refSink += int(x) + len(counts)
	return median(times)
}
