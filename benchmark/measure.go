package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"horse"
)

// mib converts bytes to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func percentile(xs []float64, p float64) float64 { return horse.Percentile(xs, p) }

// median is the 50th percentile (0 for an empty sample).
func median(xs []float64) float64 { return percentile(xs, 50) }

// dist is one metric's timed-run sample as the report prints it: the
// median is the value, min/max and n say how far to trust it.
type dist struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newDist(unit string, xs []float64) dist {
	d := dist{Unit: unit, N: len(xs), Values: xs, Median: median(xs)}
	if len(xs) > 0 {
		d.Min, d.Max = slices.Min(xs), slices.Max(xs)
	}
	return d
}

// totalAlloc reads the cumulative bytes allocated by this process. It
// stops the world, so callers keep it outside timed regions.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// heapSampler polls the runtime's live-heap gauge — the bytes the last
// completed GC cycle found reachable — from one goroutine and keeps the
// maximum. The gauge only moves when a cycle ends, so a 10 ms poll sees
// every value a sub-second run produces.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// Stop ends the sampler and returns the peak it saw.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// Record-stream digest: FNV-1a's offset basis and prime, folded one
// 64-bit word at a time instead of one byte at a time so hashing inside
// a record sink costs a handful of multiplies per record. It is an
// equality check on the ordered stream, not a published FNV value.
const (
	digestBasis = 14695981039346656037
	digestPrime = 1099511628211
)

func foldWord(h, v uint64) uint64 { return (h ^ v) * digestPrime }

func foldRecord(h uint64, r *horse.FlowRecord) uint64 {
	h = foldWord(h, uint64(r.ID))
	h = foldWord(h, uint64(r.Arrival))
	h = foldWord(h, uint64(r.End))
	h = foldWord(h, math.Float64bits(r.SizeBits))
	h = foldWord(h, math.Float64bits(r.SentBits))
	flags := uint64(r.PathLen)<<32 | uint64(uint32(r.Punts))<<1
	if r.Completed {
		flags |= 1
	}
	h = foldWord(h, flags)
	for i := 0; i < len(r.Outcome); i++ {
		h = foldWord(h, uint64(r.Outcome[i]))
	}
	return h
}

// hostInfo is the fingerprint every report carries: a number measured
// on one host says nothing about another.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			break
		}
	}
	return h
}
