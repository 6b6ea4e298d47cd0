package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStat is a snapshot of the process-wide counters the benchmark
// differences across a pass and its rounds.
type procStat struct {
	cpu        time.Duration // user + system CPU
	maxRSS     int64         // bytes, peak so far
	writeBytes int64         // /proc/self/io write_bytes
	allocs     uint64        // heap objects allocated
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64 // seconds, approximated from the pause histogram
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readProcStat() procStat {
	var s procStat
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSS = ru.Maxrss * 1024 // kilobytes on Linux
	}
	s.writeBytes = procIOWriteBytes()
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.allocBytes = samples[1].Value.Uint64()
	s.gcCycles = samples[2].Value.Uint64()
	s.gcPause = histogramSum(samples[3].Value.Float64Histogram())
	return s
}

// histogramSum estimates the total of a runtime/metrics histogram from
// its bucket midpoints.
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		lo, hi := max(h.Buckets[i], 0), h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// procIOWriteBytes reads the bytes this process caused to be written
// to storage; 0 where the kernel does not account them.
func procIOWriteBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}
