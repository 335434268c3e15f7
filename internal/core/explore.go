package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// ErrCanceled reports an exploration stopped early through Options.Cancel.
// The accompanying Stats are the partial effort up to the abort.
var ErrCanceled = errors.New("core: exploration canceled")

// ErrDeadlineExceeded reports an exploration stopped early because
// Options.Deadline passed. The accompanying Stats are the partial effort up
// to the abort.
var ErrDeadlineExceeded = errors.New("core: exploration deadline exceeded")

// abortCheckMask throttles the cancellation/deadline check in the worker
// loop: every (mask+1)-th expansion polls the cancel channel and the clock,
// so an abort lands within a bounded number of expansions while the hot path
// stays branch-cheap when neither is configured.
const abortCheckMask = 31

// This file is the unified exploration engine. Sequential and parallel runs
// share one worker loop (explorer.run), one passed store (store.go), one
// telemetry cell per worker (workerCell), one statistics path, and one trace
// mechanism; they differ only in the frontier that schedules waiting states:
//
//   - Workers <= 1: a listFrontier (BFS/DFS/RDFS discipline), executed
//     inline on the calling goroutine over a single-shard store.
//   - Workers > 1: a dequeFrontier of Chase–Lev work-stealing deques
//     (wsqueue.go), executed by that many worker goroutines over a store of
//     parallelStoreShards lock shards.
//
// # Parallel trace reconstruction
//
// Trace queries used to be pinned to the sequential explorer because only it
// kept an arena of live parent states. The unified engine instead keeps a
// shared trace arena of per-worker append-only parent logs: when worker w
// admits a state, it appends one record (parent ref, discrete key,
// successor index) to its own log and stamps the state with the record's
// ref (worker index in the high bits, log index in the low bits). Records
// hold three packed integers only — NEVER zone pointers, State pointers, or
// label copies — so state recycling (succCtx.putState) stays sound and the
// zone-ownership protocol of store.go is untouched. The records live in
// fixed-size segment arrays (logSeg): 20 bytes per admitted state instead
// of one 80-byte record struct with a retained label, which is what makes
// always-on trace logging cheap enough for the big sweeps.
//
// When a run stops at a state (visitor match or deadlock), the trace is
// stitched back across the logs: parent refs are followed from the stop
// record to the root, and the path is re-fired from the initial state by
// re-enumerating each parent's successors through the deterministic engine
// and selecting the recorded index, materializing a fresh, caller-owned
// symbolic state (and label) for every step. Replay is exact: enumeration
// order is a pure function of the parent state, each recorded index was
// captured before any RDFS shuffle, and each parent replayed is bit-identical
// to the original — so the stitched trace is the very path the exploration
// took.
//
// Log ownership rule: worker w appends only to logs[w] while the run is
// live; stitch-up happens strictly after the worker barrier (or, for the
// initial state, before workers start). No locks are needed.

const (
	// parallelStoreShards is the lock-shard count of a parallel run's passed
	// store; a sequential run uses one shard.
	parallelStoreShards = 64
	// dequeCapacity is the initial ring size of each worker's Chase–Lev
	// deque; rings double on demand.
	dequeCapacity = 64
)

const (
	// refWorkerShift packs a parent-log reference as worker<<shift | index.
	refWorkerShift = 40
	refIndexMask   = 1<<refWorkerShift - 1
	// noRef marks "no record": the parent of the initial state, or any
	// state's ref when parent logging is off.
	noRef int64 = -1
)

// logSegShift sizes one parent-log segment: 1024 records per segment keeps
// the append path at two shifts and a mask while bounding the waste of a
// short log to one segment.
const (
	logSegShift = 10
	logSegSize  = 1 << logSegShift
	logSegMask  = logSegSize - 1
)

// logSeg is one fixed-size block of admission records, stored as parallel
// arrays: parent refs, discrete keys, and successor indices pack to 20
// bytes per record with no per-record struct or label retention.
type logSeg struct {
	// parents holds the ref of the record each state was fired from; noRef
	// for the initial state.
	parents [logSegSize]int64
	// keys holds the discrete key of each admitted state, used as a
	// consistency check during replay.
	keys [logSegSize]uint64
	// steps holds the index of the fired transition in the parent's
	// deterministic successor enumeration (succ.idx).
	steps [logSegSize]int32
}

// workerLog is one worker's append-only record log, grown segment by
// segment. Each worker owns its own header, padded against false sharing
// with its neighbors.
type workerLog struct {
	segs []*logSeg
	n    int
	_    [4]uint64
}

// parentLogs is the shared trace arena: one append-only log per worker.
type parentLogs struct {
	logs []workerLog
}

func newParentLogs(workers int) *parentLogs {
	return &parentLogs{logs: make([]workerLog, workers)}
}

// record appends an admission record to worker w's log and returns its ref.
// Owner only.
func (t *parentLogs) record(w int, parent int64, key uint64, step int32) int64 {
	l := &t.logs[w]
	i := l.n
	if i&logSegMask == 0 {
		l.segs = append(l.segs, &logSeg{})
	}
	sg := l.segs[i>>logSegShift]
	sg.parents[i&logSegMask] = parent
	sg.keys[i&logSegMask] = key
	sg.steps[i&logSegMask] = step
	l.n = i + 1
	return int64(w)<<refWorkerShift | int64(i)
}

// at resolves a ref. Only sound after the worker barrier.
func (t *parentLogs) at(ref int64) (parent int64, key uint64, step int32) {
	i := int(ref & refIndexMask)
	sg := t.logs[ref>>refWorkerShift].segs[i>>logSegShift]
	return sg.parents[i&logSegMask], sg.keys[i&logSegMask], sg.steps[i&logSegMask]
}

// frontier schedules admitted states between push and expansion. push and
// expanded are called by the worker that admitted/expanded the state; pop
// returns nil when the exploration is over for that worker (no work
// anywhere, or the stop flag is up), and reports whether the state was
// stolen from another worker. The frontier keeps no telemetry of its own:
// explorer.run counts pushes, pops and steals in loop locals.
type frontier interface {
	push(w int, s *State)
	pop(w int) (s *State, stolen bool)
	// expanded signals that a state obtained from pop has been fully
	// expanded (every successor pushed); the parallel frontier counts these
	// against its termination barrier.
	expanded(w int)
}

// listFrontier is the sequential waiting list: FIFO for BFS, LIFO for
// DFS/RDFS (successor shuffling happens in the worker loop).
type listFrontier struct {
	order Order
	list  []*State
	stop  *atomic.Bool
}

func (f *listFrontier) push(_ int, s *State) { f.list = append(f.list, s) }

func (f *listFrontier) pop(_ int) (*State, bool) {
	if f.stop.Load() || len(f.list) == 0 {
		return nil, false
	}
	var s *State
	if f.order == BFS {
		s = f.list[0]
		f.list = f.list[1:]
	} else {
		s = f.list[len(f.list)-1]
		f.list = f.list[:len(f.list)-1]
	}
	return s, false
}

func (f *listFrontier) expanded(int) {}

// dequeFrontier is the work-stealing frontier: one Chase–Lev deque per
// worker (LIFO expansion, FIFO steals) and a pending counter as termination
// barrier. pending counts states that are admitted but not yet fully
// expanded; it is incremented before a state becomes stealable and
// decremented only after all of its successors have been pushed, so
// pending == 0 is sound: no work exists and none can appear.
type dequeFrontier struct {
	deques  []*wsDeque
	rngs    []*rand.Rand // per-worker victim selection
	pending atomic.Int64
	stop    *atomic.Bool
}

func newDequeFrontier(workers int, seed int64, stop *atomic.Bool) *dequeFrontier {
	f := &dequeFrontier{
		deques: make([]*wsDeque, workers),
		rngs:   make([]*rand.Rand, workers),
		stop:   stop,
	}
	for i := range f.deques {
		f.deques[i] = newWSDeque(dequeCapacity)
		f.rngs[i] = rand.New(rand.NewSource(seed ^ (int64(i+1) * 0x9E3779B9)))
	}
	return f
}

func (f *dequeFrontier) push(w int, s *State) {
	f.pending.Add(1)
	f.deques[w].push(s)
}

func (f *dequeFrontier) pop(w int) (*State, bool) {
	me := f.deques[w]
	rng := f.rngs[w]
	idleSpins := 0
	for {
		if f.stop.Load() {
			return nil, false
		}
		if s := me.pop(); s != nil {
			return s, false
		}
		for attempt := 0; attempt < 2*len(f.deques); attempt++ {
			if v := f.deques[rng.Intn(len(f.deques))]; v != me {
				if s := v.steal(); s != nil {
					return s, true
				}
			}
		}
		if f.pending.Load() == 0 {
			return nil, false
		}
		// Someone still holds work: back off without a lock so the next
		// push is picked up by stealing.
		idleSpins++
		if idleSpins < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(min(idleSpins, 100)) * time.Microsecond)
		}
	}
}

func (f *dequeFrontier) expanded(int) { f.pending.Add(-1) }

// explorer carries the shared mutable state of one exploration run. The only
// shared structures are the passed store, the frontier, the parent logs and
// telemetry cells (per-worker ownership), the queries' per-worker
// accumulators and completion atomics, and the atomics below.
type explorer struct {
	c       *Checker
	opts    Options
	queries []Query // the attached query set (may be empty: plain sweep)
	deadQs  []Query // subset of queries observing deadlocked states
	// store is the run's passed store, held by value so a run allocates
	// only its shard array; passed points at it unless a test injects a
	// reference set (Options.passed).
	store  store
	passed passedSet
	front  frontier
	logs   *parentLogs // nil when no trace can be requested
	// cells holds one telemetry cell per worker; nil unless a Monitor or a
	// MaxBytes budget reads them.
	cells []workerCell
	mon   *monView // nil when no Monitor is attached
	prof  *profRun // nil unless the Monitor has profiling enabled

	// hasCheck caches "Cancel, Deadline, or MaxBytes configured" so the
	// worker loop pays a single predictable branch when none is.
	hasCheck bool

	stop atomic.Bool
	// live counts queries that have not yet completed; the completion that
	// drops it to zero (completeQuery) short-circuits the sweep. A
	// query-less sweep keeps it at zero and never stops early: the visit
	// path guards on len(queries), and only completeQuery reads the
	// decremented count.
	live        atomic.Int64
	deadFlag    atomic.Bool
	stored      atomic.Int64
	popped      atomic.Int64
	transitions atomic.Int64
	deadlocks   atomic.Int64
	steals      atomic.Int64
	truncated   atomic.Bool
	deadRef     atomic.Int64
	firstErr    atomic.Pointer[error]
}

func (e *explorer) fail(err error) {
	e.firstErr.CompareAndSwap(nil, &err)
	e.stop.Store(true)
}

// abortErr polls the cooperative abort signals: the wall-clock deadline
// first (so a canceled-because-expired context still reports the more
// specific ErrDeadlineExceeded), then the cancel channel. nil means keep
// going.
func (e *explorer) abortErr() error {
	if !e.opts.Deadline.IsZero() && time.Now().After(e.opts.Deadline) {
		return ErrDeadlineExceeded
	}
	if e.opts.Cancel != nil {
		select {
		case <-e.opts.Cancel:
			return ErrCanceled
		default:
		}
	}
	return nil
}

// completeQuery marks q done on state s: the first completer captures a
// caller-owned clone of s plus its parent-log ref, and decrements the live
// count. It reports whether the whole sweep should stop — either this
// completion drained the query set, or another worker already raised the
// stop flag.
func (e *explorer) completeQuery(q Query, s *State) (stopSweep bool) {
	qs := q.state()
	if !qs.done.CompareAndSwap(false, true) {
		return e.stop.Load()
	}
	qs.found.Store(cloneState(s))
	if e.logs != nil {
		qs.ref.Store(s.ref)
	}
	if e.live.Add(-1) == 0 {
		e.stop.Store(true)
		return true
	}
	return e.stop.Load()
}

// visitAdmitted feeds one newly admitted state to every live query; it
// reports whether the sweep is over (all queries completed).
func (e *explorer) visitAdmitted(w int, s *State) (stopSweep bool) {
	for _, q := range e.queries {
		if q.state().done.Load() {
			continue
		}
		if q.visit(w, s) && e.completeQuery(q, s) {
			return true
		}
	}
	return false
}

// runContained executes one worker with panic containment: a crash anywhere
// in the worker loop — engine bug, panicking visitor predicate, injected
// fault — becomes a per-run *PanicError through the same failure path as
// cancellation instead of killing the process. Containment honors the
// zone/pool ownership protocol by doing nothing: the panicked worker simply
// abandons its succCtx (scratch zone, pool, state free list) to the garbage
// collector along with the rest of the run's pools, so a possibly-corrupt
// state is never recycled, and the other workers drain promptly through the
// stop flag that fail raises. The deferred stats flush inside run still lands
// during unwinding, so partial Stats stay accurate.
func (e *explorer) runContained(w int) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(&PanicError{Worker: w, Value: r, Stack: debug.Stack()})
		}
	}()
	e.run(w)
}

// run is the worker loop, identical for both frontiers: pop, expand, admit
// successors, feed the query set, recycle the expanded state. Statistics
// accumulate in locals and flush once on exit.
func (e *explorer) run(w int) {
	ctx := e.c.eng.newCtx()
	// Parent-log records hold successor indices, not labels, so the worker
	// loop never needs stable label copies — replay rebuilds them on demand.
	ctx.keepLabels = false
	var shuffle *rand.Rand
	if e.opts.Order == RDFS {
		// Worker 0 reproduces the sequential RDFS stream for a given seed.
		shuffle = rand.New(rand.NewSource(e.opts.Seed ^ (int64(w) * 0x9E3779B97F4A7C)))
	}
	var succs []succ
	var nPopped, nTransitions, nDeadlocks, nSteals, nPushed int64
	if w == 0 {
		nPushed = 1 // explore pushed the initial state onto worker 0's frontier
	}
	var cell *workerCell
	if e.cells != nil {
		cell = &e.cells[w]
	}
	defer func() {
		e.popped.Add(nPopped)
		e.transitions.Add(nTransitions)
		e.deadlocks.Add(nDeadlocks)
		e.steals.Add(nSteals)
	}()
	for {
		if cell != nil {
			// The run's one telemetry publication: single-writer relaxed
			// stores of the loop locals and the pool allocation into this
			// worker's padded cell, summed on read by Monitor.Snapshot, the
			// memory budget and the profiler. Never an RMW, never contended.
			cell.publish(nPopped, nTransitions, nDeadlocks, nPushed-nPopped, ctx.pool)
		}
		if e.hasCheck && nPopped&abortCheckMask == 0 {
			if err := e.abortErr(); err != nil {
				e.fail(err)
				return
			}
			// The budget sums every worker's published pool allocation and
			// the passed store's actual packed footprint — a few loads, only
			// between expansions, only when a budget is configured.
			if e.opts.MaxBytes > 0 && e.memExceeded() {
				e.fail(ErrMemoryBudget)
				return
			}
		}
		if faultinject.Enabled {
			if err := faultinject.Fire("core/worker"); err != nil {
				e.fail(err)
				return
			}
		}
		if e.prof != nil && nPopped&e.prof.mask == 0 {
			// Sweep-profile sampling: every (mask+1)-th expansion the worker
			// appends one point to its own ring — loop locals, the cells and
			// a few shared atomics. The disabled path is the nil check
			// alone, and the rings were allocated at attach, so an
			// unprofiled sweep provably gains zero allocations.
			gets, reuses := ctx.pool.Stats()
			e.sampleProfile(w, nPopped, nTransitions, nSteals, gets, reuses)
		}
		s, stolen := e.front.pop(w)
		if s == nil {
			return
		}
		nPopped++
		if stolen {
			nSteals++
		}
		var err error
		succs, err = e.c.eng.successors(ctx, s, succs[:0])
		if err != nil {
			e.fail(err)
			return
		}
		if len(succs) == 0 {
			nDeadlocks++
			for _, q := range e.deadQs {
				if q.state().done.Load() {
					continue
				}
				if q.onDeadlock(w, s) && e.completeQuery(q, s) {
					return
				}
			}
			if e.opts.StopAtDeadlock {
				if e.logs != nil && e.deadFlag.CompareAndSwap(false, true) {
					e.deadRef.Store(s.ref)
				}
				e.stop.Store(true)
				return
			}
		}
		if shuffle != nil {
			shuffle.Shuffle(len(succs), func(i, j int) { succs[i], succs[j] = succs[j], succs[i] })
		}
		for _, sc := range succs {
			nTransitions++
			if !e.passed.add(sc.state) {
				// Subsumed: the state is discarded and nothing else
				// references it, so it is recycled wholesale.
				ctx.putState(sc.state)
				continue
			}
			n := e.stored.Add(1)
			if e.logs != nil {
				sc.state.ref = e.logs.record(w, s.ref, sc.state.discreteKey(), sc.idx)
			}
			if len(e.queries) > 0 && e.visitAdmitted(w, sc.state) {
				return
			}
			// The hard state budget is checked at admission — the point the
			// count is already in hand — and fails the run; the soft MaxStates
			// below merely truncates it.
			if e.opts.StateBudget > 0 && n > int64(e.opts.StateBudget) {
				e.fail(ErrStateBudget)
				return
			}
			if e.opts.MaxStates > 0 && n >= int64(e.opts.MaxStates) {
				e.truncated.Store(true)
				e.stop.Store(true)
				return
			}
			e.front.push(w, sc.state)
			nPushed++
		}
		e.front.expanded(w)
		// s is fully expanded and the passed store holds its own copies of
		// everything admitted, so recycle it wholesale.
		ctx.putState(s)
	}
}

// explore runs the unified engine over one query set (possibly empty: a
// plain sweep). Every query attaches per-worker reduction state to the
// single run; queries complete independently and the sweep short-circuits
// when the last one does. Workers and the frontier kind come from
// opts.parallelism().
func (c *Checker) explore(opts Options, queries []Query) (ExploreResult, error) {
	start := time.Now()
	workers, parallel := opts.parallelism()
	var res ExploreResult
	init, err := c.eng.initial()
	if err != nil {
		return res, err
	}
	e := &explorer{c: c, opts: opts, queries: queries}
	hasAbort := opts.Cancel != nil || !opts.Deadline.IsZero()
	e.hasCheck = hasAbort || opts.MaxBytes > 0
	if hasAbort {
		// Refuse to start an already-aborted run: a closed Cancel channel or
		// an expired Deadline returns immediately with zero Stats, before any
		// query is marked used.
		if aerr := e.abortErr(); aerr != nil {
			res.Duration = time.Since(start)
			return res, aerr
		}
	}
	if opts.Monitor != nil || opts.MaxBytes > 0 {
		e.cells = make([]workerCell, workers)
	}
	e.deadRef.Store(noRef)
	e.live.Store(int64(len(queries)))
	// Parent logs exist exactly when a trace can be requested: a query may
	// complete with a witness, or StopAtDeadlock may stop the run.
	// Trace-free query sets (MaxVar alone) need none; opts.noTrace
	// additionally forces them off for in-package callers that can prove
	// they never replay.
	needTrace := opts.StopAtDeadlock
	for _, q := range queries {
		qs := q.state()
		qs.used = true
		qs.init()
		q.prepare(workers)
		if q.observesDeadlocks() {
			e.deadQs = append(e.deadQs, q)
		}
		if q.wantsTrace() {
			needTrace = true
		}
	}
	if needTrace && !opts.noTrace {
		e.logs = newParentLogs(workers)
	}

	if opts.passed != nil {
		// Test hook: a caller-supplied passed set replaces the store, so the
		// compact store can be differentially checked against a reference
		// (store_oracle_test.go).
		e.passed = opts.passed
	} else {
		shards := 1
		if parallel {
			shards = parallelStoreShards
		}
		e.store.init(shards)
		e.passed = &e.store
	}
	e.passed.add(init)
	e.stored.Store(1)
	init.ref = noRef
	if e.logs != nil {
		init.ref = e.logs.record(0, noRef, init.discreteKey(), 0)
	}

	// The initial state is admitted like any other; if it already completes
	// the whole query set, the sweep is skipped. The visit runs contained
	// like the workers' — it executes the same caller-supplied predicates,
	// and a crash here must fail the run, not the process.
	drained := false
	if len(queries) > 0 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					e.fail(&PanicError{Worker: 0, Value: r, Stack: debug.Stack()})
				}
			}()
			drained = e.visitAdmitted(0, init)
		}()
	}
	if !drained {
		if parallel {
			e.front = newDequeFrontier(workers, opts.Seed, &e.stop)
		} else {
			e.front = &listFrontier{order: opts.Order, stop: &e.stop}
		}
		e.front.push(0, init)
	}
	// Attach the monitor strictly after e.front is in place: the atomic
	// publication inside attach orders the frontier write before any
	// Snapshot reads it.
	endExplore := noopEnd
	if opts.Monitor != nil {
		e.mon = opts.Monitor.attach(e, workers)
		e.prof = e.mon.prof
		endExplore = opts.Monitor.BeginPhase("explore")
	}
	if !drained {
		if parallel {
			var wg sync.WaitGroup
			wg.Add(workers)
			for i := 0; i < workers; i++ {
				go func(id int) {
					defer wg.Done()
					e.runContained(id)
				}(i)
			}
			wg.Wait()
		} else {
			e.runContained(0)
		}
	}
	endExplore()
	if e.mon != nil {
		// Workers are done and their deferred flushes have landed in the
		// explorer atomics; later Snapshots read those exact totals.
		e.mon.setDone()
	}

	res.Duration = time.Since(start)
	res.Stored = int(e.stored.Load())
	res.Popped = int(e.popped.Load())
	res.Transitions = int(e.transitions.Load())
	res.Deadlocks = int(e.deadlocks.Load())
	res.Truncated = e.truncated.Load()
	if ep := e.firstErr.Load(); ep != nil {
		// Finish the queries anyway so partial reductions remain readable,
		// but the run error wins.
		for _, q := range queries {
			_ = q.finish(c, e.logs, res.Stats)
		}
		return res, *ep
	}
	if opts.Monitor != nil && e.logs != nil {
		// The trace-replay phase covers everything after the sweep that may
		// re-fire transitions: the deadlock replay plus each query's finish
		// (reduction merge + completion-trace replay).
		defer opts.Monitor.BeginPhase("trace-replay")()
	}
	if ref := e.deadRef.Load(); e.logs != nil && ref != noRef {
		if res.DeadlockTrace, err = c.replayTrace(e.logs, ref); err != nil {
			return res, err
		}
	}
	// Merge per-worker reductions and replay completion traces strictly
	// after the worker barrier.
	for _, q := range queries {
		if err := q.finish(c, e.logs, res.Stats); err != nil {
			return res, err
		}
	}
	return res, nil
}

// replayTrace stitches the path to ref back across the per-worker parent
// logs and re-fires it from the initial state: each step re-enumerates the
// parent's successors through the deterministic engine and selects the
// recorded index. Every returned TraceStep owns a freshly materialized
// state, zone, and label (chunk-backed Parts stay alive through the Label
// references after the replay ctx is dropped), so the trace stays valid
// after the exploration's pools are gone. Sibling successors of each step
// are recycled into the replay ctx; the selected states are never put back,
// so their zones are safe to retain. The replay double-checks each step
// against the recorded discrete key and fails loudly on any divergence — by
// construction there is none, since enumeration is a pure function of the
// parent state, indices were captured before any RDFS shuffle, and each
// replayed parent is bit-identical to the original.
func (c *Checker) replayTrace(logs *parentLogs, ref int64) ([]TraceStep, error) {
	type chainStep struct {
		key uint64
		idx int32
	}
	var chain []chainStep
	for r := ref; r != noRef; {
		parent, key, idx := logs.at(r)
		chain = append(chain, chainStep{key, idx})
		r = parent
	}
	slices.Reverse(chain)

	ctx := c.eng.newCtx() // keepLabels: replay materializes the labels
	cur, err := c.eng.initial()
	if err != nil {
		return nil, err
	}
	if cur.discreteKey() != chain[0].key {
		return nil, fmt.Errorf("core: internal: trace log root does not match the initial state")
	}
	steps := make([]TraceStep, 0, len(chain))
	steps = append(steps, TraceStep{State: cur})
	var succs []succ
	for _, st := range chain[1:] {
		succs, err = c.eng.successors(ctx, cur, succs[:0])
		if err != nil {
			return nil, fmt.Errorf("core: internal: trace replay: %w", err)
		}
		chosen := -1
		for i := range succs {
			if succs[i].idx == st.idx {
				chosen = i
			} else {
				ctx.putState(succs[i].state)
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("core: internal: trace replay: recorded successor %d not enabled", st.idx)
		}
		ns := succs[chosen].state
		if ns.discreteKey() != st.key {
			return nil, fmt.Errorf("core: internal: trace replay diverged after %s",
				succs[chosen].label.Format(c.net))
		}
		steps = append(steps, TraceStep{Label: succs[chosen].label, State: ns})
		cur = ns
	}
	return steps, nil
}
