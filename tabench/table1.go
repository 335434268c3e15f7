package main

import (
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
)

// table1Budget is the fixed state budget of every table1 sweep, BFS and rdf
// fallback alike. At this budget a pass takes a few seconds on a 2-CPU host
// and some cells of every row but one close exactly.
const table1Budget = 12_000

// fallbackSeed seeds every rdf fallback, so the fallback's lower bounds and
// counts are part of the fixed work of a pass.
const fallbackSeed = 1

// anchors are the committed exact WCRTs (ms, 3 decimals) of the Table 1
// cells that close exhaustively, keyed by cellKey. An exact cell must equal
// its anchor; a lower bound must not exceed it.
var anchors = map[string]string{
	"HandleTMC/CV/po":      "373.864",
	"K2A/CV/po":            "32.831",
	"A2V/CV/po":            "35.919",
	"HandleTMC/AL/po":      "172.106",
	"AddressLookup/AL/po":  "79.076",
	"HandleTMC/CV/pno":     "382.531",
	"HandleTMC/AL/pno":     "239.081",
	"AddressLookup/AL/pno": "79.076",
	"HandleTMC/AL/sp":      "239.081",
	"AddressLookup/AL/sp":  "79.076",
}

// tmcPNOSeqStored is the committed stored-state count of the exhaustive
// single-requirement HandleTMC CV pno sweep at Workers 1: the sequential
// anchor the parallel sweep's duplicate work is measured against.
const tmcPNOSeqStored = 187_666

// parExactSeqStored is the committed stored-state total of the par-exact
// groups swept at Workers 1 (TestSequentialAnchors recomputes it).
const parExactSeqStored = 228_666 - tmcPNOSeqStored

var comboTag = map[icrns.Combo]string{icrns.ComboCV: "CV", icrns.ComboAL: "AL"}
var colTag = map[icrns.Column]string{icrns.ColPO: "po", icrns.ColPNO: "pno",
	icrns.ColSP: "sp", icrns.ColPJ: "pj", icrns.ColBUR: "bur"}

func cellKey(req string, combo icrns.Combo, col icrns.Column) string {
	return req + "/" + comboTag[combo] + "/" + colTag[col]
}

// group is one batch of Table 1 cells answered by one compilation and one
// sweep, as icrns.Cells answers a (combination, column) pair.
type group struct {
	combo icrns.Combo
	col   icrns.Column
	reqs  []string
}

func (g group) String() string {
	return comboTag[g.combo] + "/" + colTag[g.col] + "[" + strings.Join(g.reqs, ",") + "]"
}

// table1Groups lists the paper's grid the way icrns.Table1 batches it:
// per column, the CV combination (HandleTMC, K2A, A2V) then the AL one
// (HandleTMC, AddressLookup).
func table1Groups() []group {
	var out []group
	for _, col := range icrns.Columns {
		out = append(out,
			group{icrns.ComboCV, col, []string{icrns.ReqHandleTMC, icrns.ReqK2A, icrns.ReqA2V}},
			group{icrns.ComboAL, col, []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}})
	}
	return out
}

// sweepOpts are the icrns.CellOptions of a group run.
type sweepOpts struct {
	workers  int
	budget   int // MaxStates of the BFS sweep and the fallback; 0 = exhaustive
	fallback bool
	monitor  bool // attach a core.Monitor to read the batch sweep's counters
	profile  bool // make that monitor profile-enabled
}

func (o sweepOpts) cellOptions() icrns.CellOptions {
	opts := icrns.CellOptions{Cfg: icrns.DefaultConfig(), MaxStates: o.budget, Workers: o.workers}
	if o.fallback {
		opts.FallbackStates, opts.Seed = o.budget, fallbackSeed
	}
	if o.monitor || o.profile {
		opts.Monitor = new(core.Monitor)
		if o.profile {
			opts.Monitor.EnableProfile(core.ProfileConfig{})
		}
	}
	return opts
}

// sweepAgg sums the telemetry of a set of monitored sweeps.
type sweepAgg struct {
	stats                    core.Stats // the monitored sweeps (not the rdf fallbacks)
	storedBytes              int64
	internHits, internMisses int64
	poolGets, poolReuses     int64
	steals, contended        int64
	analyzeS                 float64 // time in the monitored sweeps
	fallbackRuns, raised     int
	outsideS                 float64 // time in icrns.Cells outside its sweep
}

// absorb adds one finished sweep's counters and, when profiled, its
// monitor's profile.
func (a *sweepAgg) absorb(st core.Stats, mon *core.Monitor) {
	a.stats.Add(st)
	if mon == nil {
		return
	}
	p := mon.Profile()
	if p == nil {
		return
	}
	a.storedBytes += p.Totals.StoredBytes
	a.internHits += p.Totals.InternHits
	a.internMisses += p.Totals.InternMisses
	a.steals += p.Steals
	a.contended += p.StoreContention
	for _, ws := range p.Series {
		if n := len(ws.Samples); n > 0 {
			a.poolGets += ws.Samples[n-1].PoolGets
			a.poolReuses += ws.Samples[n-1].PoolReuses
		}
	}
}

func (a *sweepAgg) add(b sweepAgg) {
	a.stats.Add(b.stats)
	a.storedBytes += b.storedBytes
	a.internHits += b.internHits
	a.internMisses += b.internMisses
	a.poolGets += b.poolGets
	a.poolReuses += b.poolReuses
	a.steals += b.steals
	a.contended += b.contended
	a.analyzeS += b.analyzeS
	a.fallbackRuns += b.fallbackRuns
	a.raised += b.raised
	a.outsideS += b.outsideS
}

// setCore reports the core/dbm per-layer metrics of one pass.
func (a *sweepAgg) setCore(rep *report) {
	rep.set("arch.analyze_s", a.analyzeS)
	rep.set("core.stored", float64(a.stats.Stored))
	rep.set("core.popped", float64(a.stats.Popped))
	rep.set("core.transitions", float64(a.stats.Transitions))
	rep.set("core.us_per_state", ratio(a.analyzeS*1e6, float64(a.stats.Stored)))
	rep.set("core.fallback_raised", ratio(float64(a.raised), float64(a.fallbackRuns)))
	rep.set("core.stored_bytes_per_state", ratio(float64(a.storedBytes), float64(a.stats.Stored)))
	rep.set("core.intern_hit_ratio", ratio(float64(a.internHits), float64(a.internHits+a.internMisses)))
	rep.set("dbm.pool_reuse_ratio", ratio(float64(a.poolReuses), float64(a.poolGets)))
	rep.set("core.steals", float64(a.steals))
	rep.set("core.store_contended", float64(a.contended))
}

// groupResult is the answer of one group run.
type groupResult struct {
	cells []arch.WCRTResult // parallel to group.reqs
	ms    float64           // the icrns.Cells call
	agg   sweepAgg          // monitored runs only
}

// runGroup answers one group with icrns.Cells, the program's batch path —
// icrns.Build, one compilation, one sweep, and the seeded rdf fallback per
// truncated cell — under one span. A monitored run reads the batch sweep's
// counters from the monitor; a profiled one adds the sweep's explore phase
// as the span's child, so the rest of the call's self time is build,
// compilation and fallback.
func runGroup(g group, o sweepOpts, tr *tracer, parent int) (groupResult, error) {
	opts := o.cellOptions()
	h := tr.begin("icrns.Cells", parent)
	start := time.Now()
	out, err := icrns.Cells(g.combo, g.col, g.reqs, opts)
	elapsed := time.Since(start)
	tr.end(h)
	if err != nil {
		return groupResult{}, fmt.Errorf("%v: %w", g, err)
	}
	res := groupResult{ms: float64(elapsed.Nanoseconds()) / 1e6}
	for _, n := range g.reqs {
		res.cells = append(res.cells, out[n])
	}
	mon := opts.Monitor
	if mon == nil {
		return res, nil
	}
	p := mon.Snapshot()
	batch := core.Stats{Stored: int(p.Stored), Popped: int(p.Popped), Transitions: int(p.Transitions)}
	res.agg.absorb(batch, mon)
	for _, c := range res.cells {
		if c.Exact || !o.fallback {
			continue
		}
		// Every truncated cell ran a fallback; a cell whose counts are not
		// the batch sweep's carries the fallback's raised bound.
		res.agg.fallbackRuns++
		if c.Stats.Stored != batch.Stored || c.Stats.Popped != batch.Popped ||
			c.Stats.Transitions != batch.Transitions {
			res.agg.raised++
		}
	}
	if prof := mon.Profile(); prof != nil {
		for _, ph := range prof.Phases {
			if ph.Name == "explore" {
				res.agg.analyzeS += float64(ph.DurNS) / 1e9
				tr.add("core.explore", h, time.Unix(0, ph.StartNS), time.Unix(0, ph.End()))
			}
		}
		res.agg.outsideS = elapsed.Seconds() - res.agg.analyzeS
	}
	return res, nil
}

// cellProblem checks one answer against the anchors: an exact cell must
// equal its anchor, a lower bound must not exceed it. It returns "" when
// the cell passes.
func cellProblem(key string, c arch.WCRTResult) string {
	want, known := anchors[key]
	got := c.MS.FloatString(3)
	switch {
	case c.BeyondHorizon:
		return fmt.Sprintf("%s: response beyond the observation horizon", key)
	case c.Exact && !known:
		return fmt.Sprintf("%s: exact %s but no committed anchor", key, got)
	case c.Exact && got != want:
		return fmt.Sprintf("%s: exact %s, anchor %s", key, got, want)
	case !c.Exact && known && exceeds(got, want):
		return fmt.Sprintf("%s: lower bound %s exceeds the exact %s", key, got, want)
	}
	return ""
}

// checkCells checks a group's answers with cellProblem and returns the
// number of cells that failed.
func checkCells(g group, cells []arch.WCRTResult, rep *report) int {
	bad := 0
	for i, c := range cells {
		if p := cellProblem(cellKey(g.reqs[i], g.combo, g.col), c); p != "" {
			rep.fail("%s", p)
			bad++
		}
	}
	return bad
}

// exceeds reports whether the decimal string got is above want.
func exceeds(got, want string) bool {
	g, _ := new(big.Rat).SetString(got)
	w, _ := new(big.Rat).SetString(want)
	return g != nil && w != nil && g.Cmp(w) > 0
}

// passSignature renders a pass's answers and each answer's exact work
// counts, which must be identical on every pass of a Workers 1 workload.
func passSignature(groups []group, results []groupResult) string {
	var sb strings.Builder
	for i, g := range groups {
		fmt.Fprintf(&sb, "%v:", g)
		for _, c := range results[i].cells {
			fmt.Fprintf(&sb, " %s (stored=%d popped=%d transitions=%d)",
				c.String(), c.Stats.Stored, c.Stats.Popped, c.Stats.Transitions)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// passOutcome is one timed pass over a list of groups.
type passOutcome struct {
	wall    float64 // seconds
	results []groupResult
	agg     sweepAgg
	rssMB   float64 // resident-set peak during the pass
}

// runPass answers every group once, in order, under one root span.
func runPass(groups []group, o sweepOpts, tr *tracer, rss *rssSampler) (passOutcome, error) {
	var p passOutcome
	rss.window()
	root := tr.begin("pass", -1)
	start := time.Now()
	for _, g := range groups {
		r, err := runGroup(g, o, tr, root)
		if err != nil {
			return p, err
		}
		p.results = append(p.results, r)
		p.agg.add(r.agg)
	}
	p.wall = time.Since(start).Seconds()
	tr.end(root)
	p.rssMB = rss.window()
	return p, nil
}

// reportPasses reports the end-to-end metrics of a closed loop of timed
// passes over the same groups, given the states one pass stores. Each
// group's time is its median over the passes, so a burst of host noise in
// one pass moves one sample of each group it hits, not the result: wall_s
// is the sum of the group medians. latency_p50_ms is the median over every
// icrns.Cells call of every pass.
func reportPasses(rep *report, passes []passOutcome, cellsPerPass int, storedPerPass float64) {
	groupMS := make([]float64, len(passes[0].results))
	var calls, rss []float64
	for g := range groupMS {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.results[g].ms)
		}
		groupMS[g] = median(xs)
		calls = append(calls, xs...)
	}
	for _, p := range passes {
		rss = append(rss, p.rssMB)
	}
	wall := 0.0
	for _, ms := range groupMS {
		wall += ms / 1e3
	}
	rep.set("wall_s", wall)
	rep.set("jobs_per_s", float64(cellsPerPass)/wall)
	rep.set("latency_p50_ms", median(calls))
	rep.set("states_per_s", storedPerPass/wall)
	rep.set("peak_rss_mb", median(rss))
	var walls []string
	for _, p := range passes {
		walls = append(walls, fmt.Sprintf("%.3f", p.wall))
	}
	rep.note("%d timed passes after 1 warm-up pass, %s s each; %d groups per pass, %d icrns.Cells latency samples",
		len(passes), strings.Join(walls, " "), len(groupMS), len(calls))
}

// permuted returns groups reordered by a seeded permutation.
func permuted(groups []group, seed int64) []group {
	out := make([]group, len(groups))
	for i, j := range seededPerm(seed, len(groups)) {
		out[i] = groups[j]
	}
	return out
}

// runTable1 is the table1 workload: the full grid, closed loop, one caller,
// Workers 1, fixed budget with the seeded rdf fallback.
func runTable1(c runConfig, rep *report, tr *tracer) error {
	rss := startRSS()
	defer rss.close()
	groups := permuted(table1Groups(), c.seed)
	o := sweepOpts{workers: 1, budget: table1Budget, fallback: true, profile: c.trace}
	cells := 0
	for _, g := range groups {
		cells += len(g.reqs)
	}

	// Warm-up pass: its time is the workload's set-up. Its monitors count
	// the states the batch sweeps store, the same on every pass.
	warmOpts := o
	warmOpts.monitor = true
	start := time.Now()
	warm, err := runPass(groups, warmOpts, &tracer{}, rss)
	if err != nil {
		return err
	}
	rep.set("setup_s", time.Since(start).Seconds())
	sig := passSignature(groups, warm.results)

	n := passCount(c.seconds, 4, 3)
	before := readRuntime()
	var passes []passOutcome
	for i := 0; i < n; i++ {
		p, err := runPass(groups, o, tr, rss)
		if err != nil {
			return err
		}
		if s := passSignature(groups, p.results); s != sig {
			rep.fail("pass %d differs from the warm-up pass at Workers 1:\n%s---\n%s", i+1, sig, s)
		}
		if c.trace && p.agg.stats != warm.agg.stats {
			rep.fail("pass %d swept %+v, the warm-up pass %+v", i+1, p.agg.stats, warm.agg.stats)
		}
		passes = append(passes, p)
	}
	rep.setRuntime(before, readRuntime(), n*cells)
	reportPasses(rep, passes, cells, float64(warm.agg.stats.Stored))

	// Output checks, on the last pass (every pass is identical).
	last := passes[len(passes)-1]
	exact, bad := 0, 0
	for i, g := range groups {
		bad += checkCells(g, last.results[i].cells, rep)
		for _, cell := range last.results[i].cells {
			if cell.Exact {
				exact++
			}
		}
	}
	rep.attempted, rep.failed = n*cells, n*bad
	rep.set("exact_ratio", float64(exact)/float64(cells))
	rep.set("ok_ratio", float64(cells-bad)/float64(cells))
	if c.trace {
		return setCoreMedianPass(rep, groups, passes, tr)
	}
	return nil
}

// setCoreMedianPass reports the core layer metrics of the pass with the
// median wall time, and the groups' compilation time, which a separate
// loop of icrns.Build and arch.CompileAll calls measures because
// icrns.Cells does both inside one call. core.fallback_s is the pass's
// time in icrns.Cells outside the batch sweeps, less that build and
// compilation time.
func setCoreMedianPass(rep *report, groups []group, passes []passOutcome, tr *tracer) error {
	best := 0
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall
	}
	m := median(walls)
	for i, p := range passes {
		if abs(p.wall-m) < abs(passes[best].wall-m) {
			best = i
		}
	}
	agg := passes[best].agg
	agg.setCore(rep)
	rep.set("trace.wall_s", rep.values["wall_s"])

	var buildS float64
	var compileMS []float64
	for _, g := range groups {
		var build, compile []float64
		for k := 0; k < 3; k++ {
			root := tr.begin("compile-probe", -1)
			h := tr.begin("icrns.Build", root)
			start := time.Now()
			sys, byName := icrns.Build(g.combo, g.col, icrns.DefaultConfig())
			built := time.Now()
			tr.end(h)
			reqs := make([]*arch.Requirement, len(g.reqs))
			for i, n := range g.reqs {
				reqs[i] = byName[n]
			}
			h = tr.begin("arch.CompileAll", root)
			_, err := arch.CompileAll(sys, reqs,
				arch.Options{HorizonMSFor: func(r *arch.Requirement) int64 { return icrns.HorizonMS(r.Name) }})
			done := time.Now()
			tr.end(h)
			tr.end(root)
			if err != nil {
				return fmt.Errorf("%v: compile: %w", g, err)
			}
			build = append(build, built.Sub(start).Seconds())
			compile = append(compile, float64(done.Sub(built).Nanoseconds())/1e6)
		}
		buildS += median(build) + median(compile)/1e3
		compileMS = append(compileMS, median(compile))
	}
	rep.set("arch.compile_ms", mean(compileMS))
	rep.set("core.fallback_s", agg.outsideS-buildS)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// parExactGroups are the Table 1 groups whose sweeps close exhaustively, so
// their answers do not depend on the parallel schedule.
func parExactGroups() []group {
	return []group{
		{icrns.ComboCV, icrns.ColPO, []string{icrns.ReqHandleTMC, icrns.ReqK2A, icrns.ReqA2V}},
		{icrns.ComboAL, icrns.ColPO, []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}},
		{icrns.ComboAL, icrns.ColPNO, []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}},
		{icrns.ComboAL, icrns.ColSP, []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}},
	}
}

// tmcPNO is the single-requirement HandleTMC CV pno cell, the largest
// exhaustive sweep of the grid.
var tmcPNO = group{icrns.ComboCV, icrns.ColPNO, []string{icrns.ReqHandleTMC}}

// storedOf is the states an exhaustive pass stored: every cell of a group
// that closed carries its batch sweep's counts.
func storedOf(p passOutcome) float64 {
	stored := 0
	for _, r := range p.results {
		stored += r.cells[0].Stats.Stored
	}
	return float64(stored)
}

// runParExact is the par-exact workload: the Table 1 groups that close
// exhaustively, at Workers = NumCPU — the engine's parallel frontier and
// sharded store. The traced run adds the HandleTMC CV pno cell, at
// Workers = NumCPU and at Workers 1.
func runParExact(c runConfig, rep *report, tr *tracer) error {
	rss := startRSS()
	defer rss.close()
	workers := runtime.NumCPU()
	groups := permuted(parExactGroups(), c.seed)
	o := sweepOpts{workers: workers, profile: c.trace}
	cells := 0
	for _, g := range groups {
		cells += len(g.reqs)
	}
	// Warm-up pass: its time is the workload's set-up.
	start := time.Now()
	if _, err := runPass(groups, o, &tracer{}, rss); err != nil {
		return err
	}
	rep.set("setup_s", time.Since(start).Seconds())

	n := passCount(c.seconds, 0.45, 3)
	before := readRuntime()
	var passes []passOutcome
	var stored []float64
	exact, bad := 0, 0
	for i := 0; i < n; i++ {
		p, err := runPass(groups, o, tr, rss)
		if err != nil {
			return err
		}
		for j, g := range groups {
			for k, cell := range p.results[j].cells {
				key := cellKey(g.reqs[k], g.combo, g.col)
				problem := cellProblem(key, cell)
				if problem == "" && !cell.Exact {
					problem = fmt.Sprintf("%s: not exact at Workers %d", key, workers)
				}
				if problem != "" {
					rep.fail("pass %d: %s", i+1, problem)
					bad++
					continue
				}
				exact++
			}
		}
		passes = append(passes, p)
		stored = append(stored, storedOf(p))
	}
	rep.setRuntime(before, readRuntime(), n*cells)
	reportPasses(rep, passes, cells, median(stored))
	rep.attempted, rep.failed = n*cells, bad
	rep.set("exact_ratio", float64(exact)/float64(n*cells))
	rep.set("ok_ratio", float64(n*cells-bad)/float64(n*cells))
	rep.note("par-exact: %d workers", workers)
	if !c.trace {
		return nil
	}
	if err := setCoreMedianPass(rep, groups, passes, tr); err != nil {
		return err
	}
	rep.set("core.dup_ratio", median(stored)/parExactSeqStored)
	return traceTMCPNO(workers, rep, tr)
}

// traceTMCPNO attributes the parallel slowdown of the HandleTMC CV pno
// cell, the largest exhaustive sweep of the grid: it sweeps the cell at
// Workers = workers and at Workers 1, and sets the parallel sweep's
// duplicate stored states (against the committed sequential count),
// steals, store contention and cost per stored state beside the
// sequential ones.
func traceTMCPNO(workers int, rep *report, tr *tracer) error {
	run := func(w int) (groupResult, float64, error) {
		root := tr.begin(fmt.Sprintf("tmc_pno.workers%d", w), -1)
		start := time.Now()
		r, err := runGroup(tmcPNO, sweepOpts{workers: w, profile: true}, tr, root)
		wall := time.Since(start).Seconds()
		tr.end(root)
		if err == nil && checkCells(tmcPNO, r.cells, rep) > 0 {
			err = fmt.Errorf("%v: wrong answer at Workers %d", tmcPNO, w)
		}
		return r, wall, err
	}
	par, parWall, err := run(workers)
	if err != nil {
		return err
	}
	seq, seqWall, err := run(1)
	if err != nil {
		return err
	}
	if seq.agg.stats.Stored != tmcPNOSeqStored {
		rep.fail("%v: %d states stored at Workers 1, committed %d", tmcPNO, seq.agg.stats.Stored, tmcPNOSeqStored)
	}
	rep.set("core.tmc_pno.dup_ratio", float64(par.agg.stats.Stored)/tmcPNOSeqStored)
	rep.set("core.tmc_pno.steals", float64(par.agg.steals))
	rep.set("core.tmc_pno.store_contended", float64(par.agg.contended))
	rep.set("core.tmc_pno.us_per_state", par.agg.analyzeS*1e6/float64(par.agg.stats.Stored))
	rep.set("core.tmc_pno.seq_us_per_state", seq.agg.analyzeS*1e6/float64(seq.agg.stats.Stored))
	rep.set("core.tmc_pno.slowdown", parWall/seqWall)
	rep.note("HandleTMC CV pno: Workers %d stored %d in %.2fs; Workers 1 stored %d in %.2fs",
		workers, par.agg.stats.Stored, parWall, seq.agg.stats.Stored, seqWall)
	return nil
}
