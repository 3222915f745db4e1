package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the middle two for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples the reported tail percentile must
// leave above it: a percentile with fewer samples beyond it is one
// outlier, not a tail.
const tailBeyond = 10

// dist summarizes a timing distribution the way every timing in the
// report is given: the median, the highest whole percentile with at least
// tailBeyond samples beyond it, and the sample count. With fewer than
// 2·tailBeyond+1 samples no percentile at or above the median qualifies;
// the tail then repeats the median and TailPct reads 50.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct int
}

// summarize computes a dist over xs using nearest-rank percentiles.
func summarize(xs []float64) dist {
	d := dist{N: len(xs), TailPct: 50}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.P50 = median(s)
	d.Tail = d.P50
	n := len(s)
	for p := 99; p > 50; p-- {
		k := rankIndex(p, n)
		if n-1-k >= tailBeyond {
			d.Tail, d.TailPct = s[k], p
			break
		}
	}
	return d
}

// rankIndex is the 0-based nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p, n int) int {
	k := int(math.Ceil(float64(p)*float64(n)/100)) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// allocSnap is a point-in-time heap allocation count.
type allocSnap struct{ bytes, objects uint64 }

// readAllocs returns the process's cumulative heap allocations. It stops
// the world briefly; callers keep it outside the spans they time.
func readAllocs() allocSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnap{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

func (a allocSnap) sub(b allocSnap) allocSnap {
	return allocSnap{bytes: a.bytes - b.bytes, objects: a.objects - b.objects}
}

// peakRSSMB returns the process's resident-set high-water mark in MiB
// (VmHWM). Where /proc is unavailable it falls back to the Go runtime's
// total obtained memory, which over-approximates resident memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuTime returns the process's user plus system CPU time. Unlike wall
// time it excludes time the host took the CPU away (steal) and time no
// goroutine was runnable.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
