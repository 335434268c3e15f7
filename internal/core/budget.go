package core

import (
	"errors"
	"fmt"

	"repro/internal/dbm"
)

// This file is the resource-budget substrate of the unified explorer: hard
// state and memory ceilings that turn a runaway sweep into a partial result
// instead of an OOM kill. Both budgets surface through the same cooperative
// abort point as cancellation (the between-expansions checkpoint in
// explorer.run), so a budget breach honors every ownership invariant a cancel
// does: workers stop between expansions, partial Stats are returned, and the
// checker stays reusable.
//
// Accounting follows the engine's per-worker single-writer style — no new
// atomics on the visitor path:
//
//   - States are counted at admission by the existing e.stored counter; the
//     state budget is one extra compare on the admission path.
//   - Worker-side zone bytes are known at pool get/put: every full matrix in
//     the run — worker scratch, admitted states still in flight — is drawn
//     from some worker's dbm.Pool, whose gets/reuses counters already record
//     how many matrices it allocated (gets − reuses). Each worker publishes
//     its own pool's allocation into its telemetry cell (workerCell, a plain
//     store, single writer) at the top of every expansion, and at each
//     checkpoint sums all cells against the limit. The cells are allocated
//     only when a memory budget or a Monitor reads them, so unbudgeted,
//     unmonitored runs pay nothing — not even the allocation.
//   - Store-side bytes are charged at their ACTUAL packed footprint: the
//     passed store tracks the exact bytes of its compact zone buffers plus
//     its interned discrete vectors (store.go), and the checkpoint adds that
//     live total (passedSet.bytes) to the worker cells. Compression behind
//     the admission boundary is therefore budget-visible: the same model
//     fits a smaller MaxBytes than it would with full stored DBMs.

// ErrStateBudget reports an exploration stopped because Options.StateBudget
// unique states had been admitted. The accompanying Stats are the partial
// effort up to the abort; the Checker remains reusable. Unlike MaxStates
// (soft truncation: Stats.Truncated, no error), a state budget is a hard
// failure for callers that must not trust partial verdicts.
var ErrStateBudget = errors.New("core: exploration state budget exceeded")

// ErrMemoryBudget reports an exploration stopped because its zone memory
// exceeded Options.MaxBytes. The accompanying Stats are the partial effort up
// to the abort; the Checker remains reusable.
var ErrMemoryBudget = errors.New("core: exploration memory budget exceeded")

// PanicError is the per-run error a contained worker crash converts into: the
// run fails like a canceled one (partial Stats, reusable Checker) instead of
// taking the process down. The panicked worker abandons its succCtx — and
// with it every zone and state it owned — to the run's pools; nothing
// possibly-corrupt is ever recycled into a later run.
type PanicError struct {
	// Worker is the index of the crashed worker.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the crashed goroutine's stack at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("core: worker %d panicked: %v", p.Worker, p.Value)
}

// memExceeded reports whether the run's memory has passed Options.MaxBytes:
// every worker's published pool allocation plus the initial state's zone
// (drawn before workers start), at full-matrix size, plus the passed store's
// actual packed footprint.
func (e *explorer) memExceeded() bool {
	_, zones := e.cellTotals()
	return (1+zones)*dbm.ZoneBytes(e.c.eng.dim)+e.passed.bytes() > e.opts.MaxBytes
}
