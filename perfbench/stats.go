package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// mix derives an independent seed from a base seed and a stream of
// indices (splitmix64 finalizer), so every op sequence, task set and
// sweep seed of a run is a function of the workload seed alone.
func mix(base int64, idx ...int) int64 {
	z := uint64(base)
	for _, i := range idx {
		z += 0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; NaN when xs is empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
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

// quartiles returns the first and third quartiles of xs by the
// exclusive method that Python's statistics.quantiles(xs, n=4) uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*float64(delta)/4
	}
	return q(1), q(3)
}

// peakRSSMiB is the process's peak resident set (Linux reports
// Maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta reads the allocation and GC counters around a phase.
type memDelta struct{ m0 runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.m0)
	return d
}

// stop returns the heap allocations and GC cycles since startMem.
func (d *memDelta) stop() (mallocs, gcs uint64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - d.m0.Mallocs, uint64(m1.NumGC - d.m0.NumGC)
}

// stolenSeconds is the CPU time the hypervisor has held away from
// this machine since boot, summed over its CPUs: the steal column of the
// cpu line of /proc/stat, in USER_HZ ticks (100 a second). It is 0
// where the kernel reports no steal.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	steal, _ := strconv.ParseFloat(f[8], 64)
	return steal / 100
}

// clock measures a timed phase both ways: wall time, and run time,
// which is wall time minus the time the hypervisor held the phase's
// CPUs away from it meanwhile. On a shared virtual machine that steal
// moves from second to second by tens of percent, so throughput and
// set-up time are taken over run time. A phase keeps busy CPUs busy;
// an idle CPU is not stolen from, so the steal of the whole machine is
// shared out over the busy CPUs.
type clock struct {
	t0     time.Time
	stolen float64
	busy   int
}

func startClock(busy int) clock { return clock{time.Now(), stolenSeconds(), busy} }

// stop returns the wall time and the run time since startClock.
func (c clock) stop() (wall, run time.Duration) {
	wall = time.Since(c.t0)
	stolen := time.Duration((stolenSeconds() - c.stolen) / float64(c.busy) * float64(time.Second))
	// The steal column counts 10 ms ticks, so on a short phase it can
	// read more than the phase's share; it is capped at half the wall.
	return wall, wall - min(stolen, wall/2)
}
