package core

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the sweep-profile recorder: an opt-in extension of Monitor
// that captures per-phase spans (parse → compile → explore → trace-replay)
// and a sampled per-worker time series of the exploration's behavior —
// throughput, frontier depth, steal counts, pool traffic, store footprint.
//
// The cost contract mirrors budget.go: everything the recorder needs per
// run (the rings, the sampling mask) is allocated only when EnableProfile
// was called, and the worker loop's disabled path is one nil check — the
// bench gate (Table1_HandleTMC_AL_po vs ..._Profiled) pins the disabled
// sweep to exactly its historical allocs/op. Sampling itself is single-
// writer work: each worker appends to its own ring at a fixed expansion
// stride, reads only its loop locals, the run's telemetry cells and the
// shared store's atomics, and never takes a lock.

// ProfileConfig tunes the sweep-profile recorder. Zero values select the
// documented defaults.
type ProfileConfig struct {
	// SampleEvery is the per-worker sampling stride in expansions, rounded
	// up to a power of two so the loop test is one mask. Default 256.
	SampleEvery int
	// MaxSamples bounds each worker's ring; once full, the oldest samples
	// are overwritten and counted as Dropped. Default 512.
	MaxSamples int
}

func (c ProfileConfig) withDefaults() ProfileConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 256
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 512
	}
	return c
}

// WorkerSample is one point of a worker's time series. Counters are the
// worker's own cumulative totals at sample time, so rates (states/sec) are
// first differences over AtNS.
type WorkerSample struct {
	// AtNS is the sample time in Unix nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Popped and Transitions are the worker's cumulative expansion counters.
	Popped      int64 `json:"popped"`
	Transitions int64 `json:"transitions"`
	// Steals counts states this worker has taken from other workers' deques.
	Steals int64 `json:"steals"`
	// PoolGets / PoolReuses are the worker's zone-pool traffic; the gap is
	// its live allocation.
	PoolGets   int64 `json:"pool_gets"`
	PoolReuses int64 `json:"pool_reuses"`
	// Frontier is the global backlog at sample time.
	Frontier int64 `json:"frontier"`
	// StoredBytes is the passed store's global packed footprint at sample
	// time.
	StoredBytes int64 `json:"stored_bytes"`
}

// WorkerSeries is one worker's sampled time series.
type WorkerSeries struct {
	Worker int `json:"worker"`
	// Dropped counts samples overwritten by the bounded ring; the retained
	// Samples are the newest ones, oldest first.
	Dropped int            `json:"dropped"`
	Samples []WorkerSample `json:"samples"`
}

// SweepProfile is the structured profile of a monitored run: phase spans
// plus the per-worker series and run-wide contention totals of the most
// recently completed exploration. Phases accumulate across runs on the same
// Monitor (a CLI records parse/compile before the sweep; icrns fallback
// reruns append a second explore span); Series/Steals/StoreContention/Totals
// describe the latest completed run only.
type SweepProfile struct {
	Workers     int            `json:"workers"`
	SampleEvery int            `json:"sample_every"`
	Phases      []obs.Span     `json:"phases"`
	Series      []WorkerSeries `json:"series,omitempty"`
	// Steals totals successful deque steals across workers (0 for
	// sequential runs).
	Steals int64 `json:"steals"`
	// StoreContention counts shard-lock acquisitions that had to wait,
	// summed over the sharded passed store (0 for sequential runs).
	StoreContention int64 `json:"store_contention"`
	// Totals are the run's exact final counters (equal to Stats).
	Totals Progress `json:"totals"`
}

// profRecorder is the Monitor-lifetime half of the profiler: configuration,
// the accumulated phase spans, and the finalized data of the last run.
type profRecorder struct {
	cfg    ProfileConfig
	phases obs.SpanList

	// last is the finalized profile of the most recent completed run,
	// written under setDone and read by Profile.
	mu   sync.Mutex
	last *SweepProfile
}

func newProfRecorder(cfg ProfileConfig) *profRecorder {
	return &profRecorder{cfg: cfg.withDefaults()}
}

func (r *profRecorder) setLast(p *SweepProfile) {
	r.mu.Lock()
	r.last = p
	r.mu.Unlock()
}

func (r *profRecorder) getLast() *SweepProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// profRun is the per-run sampling state, allocated at attach time only for
// profile-enabled monitors — a disabled run allocates nothing.
type profRun struct {
	rec   *profRecorder
	mask  int64
	max   int
	rings []profRing
}

// profRing is one worker's bounded sample ring, padded so neighboring
// workers' appends never share a cache line.
type profRing struct {
	samples []WorkerSample
	n       int // total samples taken; ring index is n % cap
	_       [40]byte
}

func (r *profRecorder) newRun(workers int) *profRun {
	every := r.cfg.SampleEvery
	mask := int64(1)
	for mask < int64(every) {
		mask <<= 1
	}
	pr := &profRun{rec: r, mask: mask - 1, max: r.cfg.MaxSamples,
		rings: make([]profRing, workers)}
	for i := range pr.rings {
		pr.rings[i].samples = make([]WorkerSample, 0, r.cfg.MaxSamples)
	}
	return pr
}

// sample appends one point to worker w's ring. Owner only: the worker loop
// calls this at its sampling stride; nothing else writes the ring until the
// barrier.
func (e *explorer) sampleProfile(w int, nPopped, nTransitions, nSteals int64, gets, reuses int) {
	pr := e.prof
	ring := &pr.rings[w]
	live, _ := e.cellTotals()
	s := WorkerSample{
		AtNS:        time.Now().UnixNano(),
		Popped:      nPopped,
		Transitions: nTransitions,
		Steals:      nSteals,
		PoolGets:    int64(gets),
		PoolReuses:  int64(reuses),
		Frontier:    live.Frontier,
		StoredBytes: e.passed.bytes(),
	}
	if len(ring.samples) < pr.max {
		ring.samples = append(ring.samples, s)
	} else {
		ring.samples[ring.n%pr.max] = s
	}
	ring.n++
}

// finalize freezes the run's series into the recorder. Called from
// monView.setDone, strictly after the worker barrier, so the rings are
// quiescent.
func (pr *profRun) finalize(e *explorer, totals Progress) {
	p := &SweepProfile{
		Workers:     len(pr.rings),
		SampleEvery: int(pr.mask + 1),
		Totals:      totals,
	}
	p.Series = make([]WorkerSeries, len(pr.rings))
	for w := range pr.rings {
		r := &pr.rings[w]
		ws := WorkerSeries{Worker: w}
		if r.n > len(r.samples) {
			ws.Dropped = r.n - len(r.samples)
			// The ring wrapped: rotate so the retained samples read oldest
			// first.
			at := r.n % pr.max
			ws.Samples = append(append([]WorkerSample(nil), r.samples[at:]...), r.samples[:at]...)
		} else {
			ws.Samples = append([]WorkerSample(nil), r.samples...)
		}
		p.Series[w] = ws
	}
	p.Steals = e.steals.Load()
	if e.passed != nil {
		p.StoreContention = e.passed.contention()
	}
	pr.rec.setLast(p)
}

// EnableProfile switches the monitor's next runs to profiled mode: phase
// spans accumulate and every attached exploration allocates sampling rings.
// Call before the run starts; calling it again replaces the configuration
// and clears previously recorded data.
func (m *Monitor) EnableProfile(cfg ProfileConfig) {
	m.prof.Store(newProfRecorder(cfg))
}

// ProfileEnabled reports whether EnableProfile has been called.
func (m *Monitor) ProfileEnabled() bool { return m.prof.Load() != nil }

// noopEnd is the shared closer BeginPhase hands out when profiling is off,
// so the disabled path allocates no closure.
func noopEnd() {}

// BeginPhase opens a named phase span (parse, compile, ...) and returns its
// closer. A no-op when profiling is disabled — callers can thread phases
// unconditionally.
func (m *Monitor) BeginPhase(name string) func() {
	r := m.prof.Load()
	if r == nil {
		return noopEnd
	}
	return r.phases.Begin(name)
}

// RecordPhase records an already-measured phase interval — for work that
// happened before the monitor existed (a service job's parse happens during
// submission, the job is created after). No-op when profiling is disabled.
func (m *Monitor) RecordPhase(name string, start, end time.Time) {
	if r := m.prof.Load(); r != nil {
		r.phases.Record(name, start, end)
	}
}

// Profile snapshots the recorded profile: the accumulated phase spans plus
// the per-worker series of the most recently completed run. It returns nil
// until profiling is enabled and something has been recorded. Safe from any
// goroutine; while a run is live it reports the previous completed run's
// series (the live run's rings are single-writer and unreadable until the
// barrier).
func (m *Monitor) Profile() *SweepProfile {
	r := m.prof.Load()
	if r == nil {
		return nil
	}
	phases := r.phases.Snapshot()
	last := r.getLast()
	if last == nil {
		if len(phases) == 0 {
			return nil
		}
		return &SweepProfile{Phases: phases}
	}
	p := *last
	p.Phases = phases
	return &p
}
