package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostTime is the wall time of a measured region, the CPU time the process
// spent over it, and the wall time the hypervisor stole from the machine's
// CPUs meanwhile, all in seconds.
type hostTime struct{ wall, cpu, stolen float64 }

// run returns the region's wall time less the stolen time: what it would
// have taken had the hypervisor not run other guests on this machine's CPUs.
func (t hostTime) run() float64 { return max(t.wall-t.stolen, 0) }

type stopwatch struct {
	t0        time.Time
	cpu0, st0 float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds(), stealSeconds()} }

func (w stopwatch) read() hostTime {
	return hostTime{time.Since(w.t0).Seconds(), cpuSeconds() - w.cpu0, stealSeconds() - w.st0}
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds returns the time the hypervisor has run other guests on this
// machine's CPUs (the steal column of /proc/stat), divided by the CPU count
// so that it reads as wall time; 0 where the correction is off.
func stealSeconds() float64 {
	if stealCPUs == 0 {
		return 0
	}
	f, ok := procStatCPU()
	if !ok {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	const userHZ = 100 // /proc/stat's fixed tick rate
	return ticks / userHZ / float64(stealCPUs)
}

// stealCPUs is the number of CPUs the aggregate steal column sums over, or
// 0 to turn the steal correction off: when /proc/stat is unreadable, or
// when it lists other CPUs than the ones this process may run on (a
// container limited to part of a larger host), whose steal would be
// charged to this process's time.
var stealCPUs = func() int {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	n := perCPULines(string(b))
	if n != runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: /proc/stat lists %d CPUs, this process may use %d: no steal correction\n", n, runtime.NumCPU())
		return 0
	}
	return n
}()

// perCPULines counts the per-CPU lines (cpu0, cpu1, ...) of /proc/stat.
func perCPULines(stat string) int {
	n := 0
	for _, line := range strings.Split(stat, "\n") {
		if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return n
}

// procStatCPU returns the fields of /proc/stat's aggregate cpu line.
func procStatCPU() ([]string, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	return f, len(f) >= 9 && f[0] == "cpu"
}

// threadCPUSeconds returns the CPU time of the calling thread; the caller
// must be locked to its OS thread.
func threadCPUSeconds() float64 {
	const rusageThread = 1 // RUSAGE_THREAD, Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssSampler polls the process's resident set size and keeps the largest
// value seen: the peak over a pass, without resetting the kernel's
// process-lifetime high-water mark.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

// rssPoll is the sampling period; short against every pass.
const rssPoll = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(rssPoll)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				s.done <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.done
}

// rssMB returns the current resident set in MB, or the Go runtime's
// obtained memory where /proc is unavailable.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
