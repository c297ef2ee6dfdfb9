package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in MB.
// It needs /proc: the benchmark runs on Linux only.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM line in /proc/self/status")
}

const (
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricHeapLive = "/gc/heap/live:bytes"
)

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	default:
		return 0
	}
}

// procSampler watches the runtime over a phase: the share of CPU time the
// collector took, and the peak of the live heap sampled every 10 ms.
type procSampler struct {
	gc0, cpu0 float64
	stop      chan struct{}
	done      chan float64
}

func startProcSampler() *procSampler {
	s := &procSampler{gc0: readFloat(metricGCCPU), cpu0: readFloat(metricTotalCPU),
		stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := readFloat(metricHeapLive)
		for {
			select {
			case <-tick.C:
				if v := readFloat(metricHeapLive); v > peak {
					peak = v
				}
			case <-s.stop:
				s.done <- peak
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the GC CPU share and the live-heap
// peak in MB.
func (s *procSampler) finish() (gcShare, heapPeakMB float64) {
	close(s.stop)
	peak := <-s.done
	if cpu := readFloat(metricTotalCPU) - s.cpu0; cpu > 0 {
		gcShare = (readFloat(metricGCCPU) - s.gc0) / cpu
	}
	return gcShare, peak / 1e6
}
