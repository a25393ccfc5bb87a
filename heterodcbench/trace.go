package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int
	Parent int // 0: root
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  map[string]any
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []*span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns its closer,
// which takes the attributes read at the closing boundary.
func (t *tracer) begin(name string, attrs map[string]any) func(map[string]any) {
	if t == nil {
		return func(map[string]any) {}
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Start: time.Now(), Attrs: attrs}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return func(end map[string]any) {
		s.End = time.Now()
		t.open = t.open[:len(t.open)-1]
		if len(end) > 0 && s.Attrs == nil {
			s.Attrs = map[string]any{}
		}
		for k, v := range end {
			s.Attrs[k] = v
		}
	}
}

// write stores the spans as Chrome trace-event JSON (it opens in Perfetto);
// parent links ride in each event's args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"span_id": s.ID, "parent_id": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		})
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": evs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// goStats is a snapshot of the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// collectGarbage collects until the live heap stops shrinking. The
// parallel engine's worker pool keeps its cluster reachable until the
// engine's finalizer closes the pool, which one collection only queues, so
// the previous run's cluster needs a second one.
func collectGarbage() {
	runtime.GC()
	prev := liveHeap()
	for i := 0; i < 4; i++ {
		time.Sleep(5 * time.Millisecond) // lets queued finalizers run
		runtime.GC()
		cur := liveHeap()
		if cur >= prev {
			return
		}
		prev = cur
	}
}

// liveHeap is the heap the last collection found reachable.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak Go heap in use (live and not yet swept
// objects) by polling runtime/metrics while a run executes.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	h.mu.Lock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// resetPeak restarts the peak from the current heap size.
func (h *heapSampler) resetPeak() {
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
	h.sample()
}

func (h *heapSampler) peakMB() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// part is one timed call into a layer within a run.
type part struct {
	wall, cpu float64 // seconds
	heapMB    float64 // peak Go heap in use during the call
}

// partClock times the calls of one run. A nil clock times nothing.
type partClock struct {
	heap  *heapSampler
	parts []part
	t0    time.Time
	c0    float64
}

func (p *partClock) start() {
	if p == nil {
		return
	}
	p.heap.resetPeak()
	p.c0 = cpuSeconds()
	p.t0 = time.Now()
}

func (p *partClock) stop() {
	if p == nil {
		return
	}
	wall, cpu := time.Since(p.t0).Seconds(), cpuSeconds()-p.c0
	p.parts = append(p.parts, part{wall: wall, cpu: cpu, heapMB: p.heap.peakMB()})
}

// finish stops the sampler and waits for it.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

func spanFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
