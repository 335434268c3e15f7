package main

import (
	"testing"
)

// TestSequentialAnchors recomputes the committed sequential stored-state
// counts the par-exact duplicate-work ratios divide by.
func TestSequentialAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the HandleTMC CV pno cell at Workers 1")
	}
	p, err := runPass(append(parExactGroups(), tmcPNO), sweepOpts{workers: 1, monitor: true}, &tracer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	for i, g := range append(parExactGroups(), tmcPNO) {
		checkCells(g, p.results[i].cells, rep)
		t.Logf("%v: stored %d", g, p.results[i].agg.stats.Stored)
	}
	for _, msg := range rep.problems {
		t.Error(msg)
	}
	if got := p.results[len(p.results)-1].agg.stats.Stored; got != tmcPNOSeqStored {
		t.Errorf("HandleTMC CV pno stored %d at Workers 1, committed %d", got, tmcPNOSeqStored)
	}
	if got := p.agg.stats.Stored - tmcPNOSeqStored; got != parExactSeqStored {
		t.Errorf("par-exact pass stored %d at Workers 1, committed %d", got, parExactSeqStored)
	}
}
