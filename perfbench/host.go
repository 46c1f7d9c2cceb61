package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host and the code a run measured, so numbers
// from different machines or sources are never compared unawares.
func fingerprint() string {
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, marked "+dirty"
// when the tree had changes, or, when the tree is not a repository, "src-"
// and a hash of the module sources it was built from (the Go files and
// go.mod of the repository root and below, as found from the working
// directory).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTicks reads the host's cumulative CPU time from /proc/stat: all
// ticks, and the ticks stolen by the hypervisor for other guests.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// The host ceilings the per-kernel rates are read against: a scalar
// multiply-add loop and a streaming copy, each on every CPU at once. Go
// does not vectorize, so the FMA loop is the ceiling for the scalar kernels
// the engine runs.

// probeFMA returns the multiply-add throughput of all CPUs in GFLOP/s.
func probeFMA(d time.Duration) float64 {
	return parallelRate(d, func(_ int, stop <-chan struct{}) float64 {
		a0, a1, a2, a3 := float32(1), float32(1.5), float32(2), float32(2.5)
		a4, a5, a6, a7 := float32(3), float32(3.5), float32(4), float32(4.5)
		const m, c = float32(0.999999), float32(1e-6)
		var flops float64
		for {
			for range 4096 {
				a0, a1, a2, a3 = a0*m+c, a1*m+c, a2*m+c, a3*m+c
				a4, a5, a6, a7 = a4*m+c, a5*m+c, a6*m+c, a7*m+c
			}
			flops += 4096 * 8 * 2
			select {
			case <-stop:
				sinkF32 = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
				return flops
			default:
			}
		}
	}) / 1e9
}

// sinkF32 keeps the FMA loop's result live.
var sinkF32 float32

// probeStream returns the copy bandwidth of all CPUs in GB/s, counting the
// bytes read and the bytes written. Each CPU copies a 16 MiB buffer, larger
// than the caches of the hosts this runs on.
func probeStream(d time.Duration) float64 {
	n := runtime.GOMAXPROCS(0)
	src, dst := make([][]byte, n), make([][]byte, n)
	for i := range n {
		src[i], dst[i] = make([]byte, 16<<20), make([]byte, 16<<20)
		for j := range src[i] {
			src[i][j] = byte(j)
		}
	}
	return parallelRate(d, func(i int, stop <-chan struct{}) float64 {
		src, dst := src[i], dst[i]
		var bytes float64
		for {
			copy(dst, src)
			bytes += 2 * float64(len(src))
			select {
			case <-stop:
				return bytes
			default:
			}
		}
	}) / 1e9
}

// parallelRate runs work(i) for every CPU i at once for d and returns the
// summed work units per second.
func parallelRate(d time.Duration, work func(i int, stop <-chan struct{}) float64) float64 {
	n := runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	units := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			units[i] = work(i, stop)
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := 0.0
	for _, u := range units {
		total += u
	}
	return total / elapsed
}
