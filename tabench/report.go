package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload (see
// README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"states_per_s", "1/s"},
	{"exact_ratio", "ratio"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A metric of a layer
// the workload does not reach reads 0 (no work of that kind was done).
var perLayer = []metricDef{
	{"trace.wall_s", "s"},
	{"trace.residual_ratio", "ratio"},
	{"arch.compile_ms", "ms"},
	{"arch.analyze_s", "s"},
	{"core.stored", "count"},
	{"core.popped", "count"},
	{"core.transitions", "count"},
	{"core.us_per_state", "us"},
	{"core.fallback_s", "s"},
	{"core.fallback_raised", "ratio"},
	{"core.stored_bytes_per_state", "B"},
	{"core.intern_hit_ratio", "ratio"},
	{"dbm.pool_reuse_ratio", "ratio"},
	{"core.steals", "count"},
	{"core.store_contended", "count"},
	{"core.dup_ratio", "ratio"},
	{"core.tmc_pno.dup_ratio", "ratio"},
	{"core.tmc_pno.steals", "count"},
	{"core.tmc_pno.store_contended", "count"},
	{"core.tmc_pno.us_per_state", "us"},
	{"core.tmc_pno.seq_us_per_state", "us"},
	{"core.tmc_pno.slowdown", "ratio"},
	{"go.alloc_mb_per_job", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"arch.parse_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.admission_wait_ms_p99", "ms"},
	{"serve.compute_ms_p50", "ms"},
	{"serve.compute_ms_p99", "ms"},
	{"serve.replicate_ms_p50", "ms"},
	{"serve.result_hit_ratio", "ratio"},
	{"serve.model_hit_ratio", "ratio"},
	{"serve.compile_hit_ratio", "ratio"},
	{"serve.explorations", "count"},
	{"serve.shed", "count"},
	{"pubsub.dispatch_ms_mean", "ms"},
	{"pubsub.adopt_ms_mean", "ms"},
	{"pubsub.remote_hit_ratio", "ratio"},
	{"pubsub.fallbacks", "count"},
}

// report collects one run's metrics, its job tally and every failed output
// check.
type report struct {
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// note adds a human-readable line printed before the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the notes, every metric of defs with its unit, and as the
// last line the JSON result object.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		fmt.Fprintf(w, "%-32s %16.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	gcCycles, allocBytes, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// setRuntime reports the runtime deltas between two readings, per job.
func (r *report) setRuntime(before, after rtSample, jobs int) {
	r.set("go.alloc_mb_per_job", ratio((after.allocBytes-before.allocBytes)/1e6, float64(jobs)))
	r.set("go.gc_cycles", after.gcCycles-before.gcCycles)
	r.set("go.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}

// rssSampler tracks the process's resident set size by sampling
// /proc/self/statm, so a run can report the peak of each timed window.
// A nil sampler reads 0.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // pages
	stop chan struct{}
	done chan struct{}
}

// rssEvery is the sampling period: a few hundred samples per second, far
// shorter than any pass.
const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if pages > s.peak {
		s.peak = pages
	}
	s.mu.Unlock()
}

// window returns the peak in MB since the previous call and starts a new
// window.
func (s *rssSampler) window() float64 {
	if s == nil {
		return 0
	}
	s.sample()
	s.mu.Lock()
	peak := s.peak
	s.peak = 0
	s.mu.Unlock()
	s.sample()
	return float64(peak*int64(os.Getpagesize())) / (1 << 20)
}

// close stops the sampler and waits for its goroutine.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
