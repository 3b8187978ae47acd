package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// llcBytes returns the largest cache size the host reports in sysfs, or
// 0 when it reports none.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printStamp(w io.Writer, cfg config) {
	llc := "unknown"
	if b := llcBytes(); b > 0 {
		llc = fmt.Sprintf("%dMiB", b>>20)
	}
	fmt.Fprintf(w, "host: cpus=%d gomaxprocs=%d go=%s commit=%s llc=%s workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), llc,
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
}

// memAvailable returns the MemAvailable bytes /proc/meminfo reports, or
// 0 when it reports none.
func memAvailable() int64 {
	raw, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "MemAvailable:" && f[2] == "kB" {
			if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// streamProbe sizes the STREAM-style triad: each array must be at least
// four times the last-level cache. It reports the array size and whether
// the three arrays fit in a quarter of the available memory, which leaves
// room for the host's other work.
func streamProbe(llc, available int64) (arrayBytes int64, fits bool) {
	if llc <= 0 {
		return 0, false
	}
	arrayBytes = 4 * llc
	return arrayBytes, 3*arrayBytes <= available/4
}

// triadGBps runs a[i] = b[i] + s·c[i] over arrays of n float64s on
// GOMAXPROCS goroutines and returns the best of reps passes in GB/s,
// counting 24 bytes per element as STREAM does.
func triadGBps(n, reps int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				triad(a[lo:hi], b[lo:hi], c[lo:hi], 3)
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(24*n) / best.Seconds() / 1e9
}

func triad(a, b, c []float64, s float64) {
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}
