package core

import (
	"sync/atomic"

	"repro/internal/dbm"
)

// This file is the live-progress view of the unified explorer: a Monitor
// attached through Options.Monitor lets another goroutine sample a running
// exploration (states stored, expansion counters, frontier backlog) without
// perturbing it. The mechanism follows the per-worker ownership style of the
// rest of the engine: every worker publishes its loop-local counters into its
// own cache-line-padded workerCell with plain atomic stores (single writer,
// never a read-modify-write, never contended), and Snapshot sums the cells.
// Once the run finishes, Snapshot switches to the explorer's exact flushed
// totals, so a final sample equals the run's Stats.

// Progress is a point-in-time view of one exploration.
type Progress struct {
	// Stored counts unique (non-subsumed) symbolic states admitted so far.
	Stored int64
	// Popped counts states taken from the frontier and expanded so far.
	Popped int64
	// Transitions counts generated successors so far, subsumed ones included.
	Transitions int64
	// Deadlocks counts expanded states with no action successor so far.
	Deadlocks int64
	// Frontier is the current backlog: states admitted but not yet fully
	// expanded. Zero once the run is over.
	Frontier int64
	// StoredBytes is the passed store's actual footprint: packed zone
	// buffers plus interned discrete vectors (see store.go).
	StoredBytes int64
	// InternHits and InternMisses count discrete-vector intern-table
	// lookups that found (resp. created) a shared vector; the hit rate
	// hits/(hits+misses) measures how much discrete-state memory the
	// interning collapsed.
	InternHits   int64
	InternMisses int64
	// Workers is the worker count of the observed run.
	Workers int
	// Running reports whether the observed exploration is still going. While
	// true, the counters are a relaxed (slightly stale, never torn) view;
	// once false they are the run's exact totals.
	Running bool
}

// workerCell is one worker's published telemetry, the run's single
// per-worker publication point: explorer.run stores the worker's loop
// counters here at the top of every expansion, and readers on other
// goroutines — Monitor.Snapshot, the memory budget, the sweep profiler —
// merge the cells by summing (explorer.cellTotals). Exactly one goroutine
// writes each cell, with plain atomic stores: never a read-modify-write,
// never a lock. Padding keeps neighboring workers' cells on separate cache
// lines. A run allocates its cells only when a Monitor or a MaxBytes budget
// reads them.
type workerCell struct {
	popped      atomic.Int64
	transitions atomic.Int64
	deadlocks   atomic.Int64
	// backlog is the worker's share of the frontier: states it pushed minus
	// states it popped. The shares of all workers sum to the backlog.
	backlog atomic.Int64
	// zones counts the full matrices the worker's pool has allocated and not
	// recycled (gets − reuses): the budget's worker-side memory.
	zones atomic.Int64
	_     [24]byte
}

// publish stores the worker's loop locals and pool allocation; single
// writer per cell.
func (c *workerCell) publish(popped, transitions, deadlocks, backlog int64, pool *dbm.Pool) {
	c.popped.Store(popped)
	c.transitions.Store(transitions)
	c.deadlocks.Store(deadlocks)
	c.backlog.Store(backlog)
	gets, reuses := pool.Stats()
	c.zones.Store(int64(gets - reuses))
}

// cellTotals merges the run's published cells: the popped, transitions,
// deadlocks and frontier counters of a Progress, plus the workers' live
// matrix count. While workers run the view is relaxed — slightly stale,
// never torn — so a backlog share published late can make the sum dip
// below zero for a moment; it is clamped.
func (e *explorer) cellTotals() (p Progress, zones int64) {
	for i := range e.cells {
		c := &e.cells[i]
		p.Popped += c.popped.Load()
		p.Transitions += c.transitions.Load()
		p.Deadlocks += c.deadlocks.Load()
		p.Frontier += c.backlog.Load()
		zones += c.zones.Load()
	}
	p.Frontier = max(p.Frontier, 0)
	return p, zones
}

// monView binds a Monitor to one exploration run. The explorer pointer is
// dropped at completion so a long-retained Monitor (a finished service job
// in a result cache) pins only the final totals — never the run's passed
// store, parent logs, telemetry cells, or zones.
type monView struct {
	e atomic.Pointer[explorer]
	// prof is the run's profile sampling state; nil unless the Monitor has
	// profiling enabled (EnableProfile), so a plain monitored run allocates
	// nothing for it.
	prof *profRun
	// final holds the exact flushed totals once the run is over; stored
	// strictly before e is cleared, so a Snapshot that finds e nil re-reads
	// final and always gets it.
	final atomic.Pointer[Progress]
}

// setDone freezes the run's exact totals and releases the explorer.
func (v *monView) setDone() {
	e := v.e.Load()
	if e == nil {
		return
	}
	p := Progress{
		Workers:     len(e.cells),
		Stored:      e.stored.Load(),
		Popped:      e.popped.Load(),
		Transitions: e.transitions.Load(),
		Deadlocks:   e.deadlocks.Load(),
	}
	if e.passed != nil {
		p.StoredBytes = e.passed.bytes()
		p.InternHits, p.InternMisses = e.passed.internStats()
	}
	if v.prof != nil {
		// The worker barrier has passed: the sample rings are quiescent, so
		// the run's series freezes into the recorder before the explorer is
		// released.
		v.prof.finalize(e, p)
	}
	v.final.Store(&p)
	v.e.Store(nil)
}

// Monitor publishes live progress of an exploration run. The zero value is
// ready to use: pass it via Options.Monitor and call Snapshot from any
// goroutine while (or after) the run executes. A Monitor observes one
// exploration at a time — attaching it to a second run replaces the view of
// the first; Snapshot then reports the latest run.
type Monitor struct {
	v atomic.Pointer[monView]
	// prof, when set (EnableProfile), upgrades every attached run to
	// profiled mode: phase spans plus sampled per-worker series (profile.go).
	prof atomic.Pointer[profRecorder]
}

// attach binds the monitor to a starting run. Called by explore strictly
// after the explorer's frontier is in place, so the atomic store here orders
// every explorer field Snapshot reads.
func (m *Monitor) attach(e *explorer, workers int) *monView {
	v := &monView{}
	if r := m.prof.Load(); r != nil {
		v.prof = r.newRun(workers)
	}
	v.e.Store(e)
	m.v.Store(v)
	return v
}

// Snapshot samples the observed run. Before any run is attached it returns
// the zero Progress; during a run, a relaxed lock-free view; after it, the
// exact totals (equal to the run's Stats counters).
func (m *Monitor) Snapshot() Progress {
	v := m.v.Load()
	if v == nil {
		return Progress{}
	}
	if f := v.final.Load(); f != nil {
		return *f
	}
	e := v.e.Load()
	if e == nil {
		// Completion raced the loads above: final was stored before e was
		// cleared, so it is visible now.
		if f := v.final.Load(); f != nil {
			return *f
		}
		return Progress{}
	}
	p, _ := e.cellTotals()
	p.Workers, p.Stored, p.Running = len(e.cells), e.stored.Load(), true
	if e.passed != nil {
		p.StoredBytes = e.passed.bytes()
		p.InternHits, p.InternMisses = e.passed.internStats()
	}
	return p
}
