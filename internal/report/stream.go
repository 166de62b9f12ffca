package report

import (
	"fmt"
	"runtime"
	"time"
)

// StreamStats reports how a streamed corpus run behaved: throughput, the
// admission window, the observed in-flight high-water mark (≤ Window by
// construction — the bound the bounded-memory tests assert), and the peak
// sampled heap. PeakHeapBytes is a sampled maximum of runtime.MemStats
// HeapAlloc over the run, not a guaranteed supremum; it is the number the
// regression test compares across corpus scales.
type StreamStats struct {
	Apps          int
	Window        int
	MaxLive       int
	Elapsed       time.Duration
	AppsPerSec    float64
	PeakHeapBytes uint64
}

// heapSampler polls runtime.ReadMemStats on a fixed cadence and tracks the
// peak HeapAlloc. One more sample is taken at stop, so short runs still get
// at least one reading.
type heapSampler struct {
	stopc chan struct{}
	donec chan struct{}
	peak  uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	h := &heapSampler{stopc: make(chan struct{}), donec: make(chan struct{})}
	go func() {
		defer close(h.donec)
		var ms runtime.MemStats
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
			case <-h.stopc:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak observed heap.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.donec
	return h.peak
}

// RunStudyStreamed is RunStudyWith plus a measurement of the run: elapsed
// time, throughput, the in-flight high-water mark and the sampled peak heap.
// It is the path behind `fragstudy -stream`. Like every corpus run it
// releases each app once it has folded, so peak heap stays O(Window · app
// size) however large the corpus. The StudyResult is the one RunStudyWith
// returns for the same config.
func RunStudyStreamed(cfg StudyConfig) (*StudyResult, *StreamStats, error) {
	sampler := startHeapSampler(0)
	start := time.Now()
	res, maxLive, err := runStudy(cfg)
	elapsed := time.Since(start)
	peak := sampler.stop()
	if err != nil {
		return nil, nil, err
	}
	st := &StreamStats{
		Apps:          res.Total,
		Window:        cfg.window(),
		MaxLive:       maxLive,
		Elapsed:       elapsed,
		PeakHeapBytes: peak,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		st.AppsPerSec = float64(st.Apps) / secs
	}
	return res, st, nil
}

// RenderStreamStats renders the streamed-run summary line block.
func RenderStreamStats(st *StreamStats) string {
	return fmt.Sprintf(
		"streamed: %d apps in %.2fs (%.1f apps/sec), window %d (max in-flight %d), peak heap %.1f MiB",
		st.Apps, st.Elapsed.Seconds(), st.AppsPerSec, st.Window, st.MaxLive,
		float64(st.PeakHeapBytes)/(1<<20))
}
