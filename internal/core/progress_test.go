package core

import (
	"testing"

	"repro/internal/dbm"
)

// TestWorkerCellsSum exercises the per-worker telemetry cells: each worker's
// published counters merge by summing, the backlog shares of a stealing
// worker (negative) and its victim (positive) cancel out, and readers racing
// one writer per cell stay race-free (the -race build is the real assertion
// here).
func TestWorkerCellsSum(t *testing.T) {
	e := &explorer{cells: make([]workerCell, 4)}
	pool := dbm.NewPool(2)
	for w := range e.cells {
		e.cells[w].publish(int64(10*w), int64(100*w), int64(w), 1, pool)
	}
	p, zones := e.cellTotals()
	if p.Popped != 60 || p.Transitions != 600 || p.Deadlocks != 6 || p.Frontier != 4 || zones != 0 {
		t.Fatalf("totals = %+v zones %d, want popped 60, transitions 600, deadlocks 6, frontier 4, zones 0", p, zones)
	}
	// Worker 1 pushed 3 states that worker 2 stole and expanded.
	e.cells[1].publish(10, 100, 1, 3, pool)
	e.cells[2].publish(23, 200, 2, -3, pool)
	if p, _ := e.cellTotals(); p.Frontier != 2 {
		t.Errorf("frontier after a steal = %d, want 2", p.Frontier)
	}
	// A share published late can make the relaxed sum dip below zero.
	e.cells[0].publish(0, 0, 0, -10, pool)
	if p, _ := e.cellTotals(); p.Frontier != 0 {
		t.Errorf("negative backlog sum reported as %d, want clamped to 0", p.Frontier)
	}
	// Pool allocations are published as live matrices: gets − reuses.
	z := pool.Get()
	pool.Put(z)
	pool.Get()
	pool.Get()
	e.cells[3].publish(30, 300, 3, 1, pool)
	if _, zones := e.cellTotals(); zones != 2 {
		t.Errorf("live matrices = %d, want 2 (3 gets, 1 reuse)", zones)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		wpool := dbm.NewPool(2)
		for i := int64(1); i <= 10_000; i++ {
			e.cells[0].publish(i, i, 0, 0, wpool)
		}
	}()
	for i := 0; i < 1_000; i++ {
		e.cellTotals()
	}
	<-done
	if got := e.cells[0].popped.Load(); got != 10_000 {
		t.Fatalf("after concurrent publishes popped = %d, want 10000", got)
	}
}
