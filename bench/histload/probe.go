package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures what a fixed piece of work costs on this
// machine while a pass runs, so a slow host can be told from a slow
// histd. It is a loop that uses nothing from the repository, xorshift
// draws indexing a 1 MiB table (the kind of work an alias-table draw
// does), so a change to histd cannot move it. Every probeEvery it runs
// probeIters iterations on a locked OS thread and reads that thread's
// CPU clock around them: time the guest kernel gives to other threads is
// not counted, time the host takes from the guest is.
const (
	probeIters = 1 << 18 // ~1 ms
	probeEvery = 50 * time.Millisecond
)

// probeRefNS fixes the scale of the _norm metrics: about the probe's
// mean cost per iteration inside an adk-sampler window on the reference
// box (2 vCPUs of a shared Intel Xeon host, Go 1.24) at that host's usual
// speed. A time metric's _norm form is its value times probeRefNS over
// the window's mean probe cost, and a rate's is divided by that ratio:
// roughly the value the reference box would show at its usual speed. The mean, not
// the median, because a throughput is a total over the window and so
// pays for the host's slow spells in proportion to their length.
const probeRefNS = 3.5

var (
	probeTable = func() []uint32 {
		t := make([]uint32, 1<<18)
		for i := range t {
			t[i] = uint32(i) * 2654435761
		}
		return t
	}()
	probeSink uint32
)

// probeWork runs the probe loop once.
func probeWork() {
	x, acc := uint64(0x9e3779b97f4a7c15), uint32(0)
	mask := uint64(len(probeTable) - 1)
	for range probeIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += probeTable[x&mask] ^ uint32(x>>32)
	}
	probeSink += acc
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling OS thread's CPU time.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// probeDuring waits until start, then probes every probeEvery until done
// is closed, and returns each probe's CPU time per iteration in
// nanoseconds.
func probeDuring(start time.Time, done <-chan struct{}) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	select {
	case <-done:
		return nil, nil
	case <-time.After(time.Until(start)):
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	var out []float64
	for {
		t0, err := threadCPU()
		if err != nil {
			return nil, err
		}
		probeWork()
		t1, err := threadCPU()
		if err != nil {
			return nil, err
		}
		out = append(out, float64(t1-t0)/probeIters)
		select {
		case <-done:
			return out, nil
		case <-tick.C:
		}
	}
}
