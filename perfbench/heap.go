package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

const (
	heapInUse        = "/memory/classes/heap/objects:bytes"
	heapAllocs       = "/gc/heap/allocs:bytes"
	heapSamplePeriod = 2 * time.Millisecond
)

// heapSampler polls the heap bytes in use through runtime/metrics and keeps
// the peak seen since the last Take.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readUint(heapInUse)
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// Take samples once more, returns the peak in MiB and restarts the peak
// from the current value.
func (h *heapSampler) Take() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// Stop ends the sampling goroutine and waits for it.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// readUint reads one uint64 runtime metric.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
