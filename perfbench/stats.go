package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit, as it appears in the
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailPercentile is the highest of p99/p95/p90 that leaves at least ten
// samples beyond it in a sample of n; 0 when even p90 does not. The
// benchmark passes its guaranteed minimum op count, not the count a run
// happened to reach, so one workload always reports the same
// percentile and a faster commit is not compared on a different one.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 0
}

// beyond counts the samples strictly above the percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// geomean is the geometric mean of positive xs; 0 when xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// digest hashes lines in order into a short hex string; two runs whose
// simulated statistics agree print the same digest.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssWindows is how many equal slices of a stretch of a timed phase
// peak_rss_mb takes the median over.
const rssWindows = 5

// rssSample is the resident set size at an offset into a phase.
type rssSample struct {
	at time.Duration
	mb float64
}

// rssMB reads the current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS records the resident set every 10 ms from start until the
// returned stop func is called; stop returns the samples once the
// sampling goroutine has exited.
func sampleRSS(start time.Time) (stop func() []rssSample) {
	quit := make(chan struct{})
	done := make(chan []rssSample)
	go func() {
		var out []rssSample
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			out = append(out, rssSample{time.Since(start), rssMB()})
			select {
			case <-quit:
				done <- out
				return
			case <-t.C:
			}
		}
	}()
	return func() []rssSample {
		close(quit)
		return <-done
	}
}

// windowPeakMB splits the first d of a phase into rssWindows equal
// slices and returns the median of the highest sample in each: a peak
// that one slow slice of a run cannot move. Samples after d are ignored.
func windowPeakMB(samples []rssSample, d time.Duration) float64 {
	peaks := make([]float64, rssWindows)
	for _, s := range samples {
		if s.at > d {
			continue
		}
		i := min(int(int64(s.at)*rssWindows/int64(d)), rssWindows-1)
		peaks[i] = max(peaks[i], s.mb)
	}
	return median(peaks)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
