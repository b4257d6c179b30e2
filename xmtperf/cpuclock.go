package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the calling thread's CPU time. Callers lock their
// goroutine to its thread around what they measure. The kernel does
// not charge a thread for time the hypervisor stole from its CPU, so on
// a shared virtual machine this measures the program rather than its
// neighbours; on a dedicated host it equals wall time for work that
// does not block.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// stopwatch times one stretch of work on the locked thread in both
// clocks; the end-to-end metrics of the single-threaded workloads use
// the CPU time, the trace uses the wall clock.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), threadCPU()} }

// cpuSince returns the thread CPU time since the watch started.
func (s stopwatch) cpuSince() time.Duration { return threadCPU() - s.cpu }

// since returns the wall and thread CPU time since the watch started.
func (s stopwatch) since() (wall, cpu time.Duration) {
	return time.Since(s.wall), s.cpuSince()
}
