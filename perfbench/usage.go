package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time this process has used in all its threads, or
// 0 where getrusage fails.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux 4.0+), so that peakRSS covers one run.
func resetPeakRSS() {
	// A kernel without the reset leaves the mark covering the process
	// so far, which only overstates the peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns VmHWM, the resident-set high-water mark in bytes, or
// 0 where /proc does not report it.
func peakRSS() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		// "VmHWM:   17408 kB"
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
