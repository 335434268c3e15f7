package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
	"repro/internal/wire"
)

const (
	// archMixSetSeed generates the fixed arch-mix model set. The set is the
	// same on every run so its work repeats exactly; --seed only sets the
	// order the models are processed in.
	archMixSetSeed = 2006
	// archMixModels is the size of the set.
	archMixModels = 2000
	// archMixBudget caps every arch-mix sweep (MaxStates), which bounds the
	// tail of the set's heavy-tailed sweep sizes.
	archMixBudget = 4000
	// archMixWarmup is the number of models analyzed before timing starts.
	archMixWarmup = 200
)

// encodeWire renders a wire value the way the service and the CLIs' -json
// encoders do: two-space indent plus a trailing newline.
func encodeWire(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// modelOutcome is one analyzed arch-mix model.
type modelOutcome struct {
	results []arch.WCRTResult
	stats   core.Stats
}

// analyzeModel takes one model from JSON to wire bytes: arch.ParseSystem,
// arch.CompileAll, (*CompiledSet).Analyze and the wire encoding, each under
// its own span.
func analyzeModel(src []byte, mon *core.Monitor, tr *tracer, parent int, agg *sweepAgg) (modelOutcome, error) {
	h := tr.begin("arch.ParseSystem", parent)
	sys, reqs, err := arch.ParseSystem(src)
	tr.end(h)
	if err != nil {
		return modelOutcome{}, fmt.Errorf("parse: %w", err)
	}
	h = tr.begin("arch.CompileAll", parent)
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: archMixHorizonMS})
	tr.end(h)
	if err != nil {
		return modelOutcome{}, fmt.Errorf("compile: %w", err)
	}
	if mon != nil {
		mon.EnableProfile(core.ProfileConfig{})
	}
	h = tr.begin("arch.Analyze", parent)
	start := time.Now()
	all, err := cs.Analyze(core.Options{Workers: 1, MaxStates: archMixBudget, Monitor: mon})
	agg.analyzeS += time.Since(start).Seconds()
	tr.end(h)
	if err != nil {
		return modelOutcome{}, fmt.Errorf("analyze: %w", err)
	}
	agg.absorb(all.Stats, mon)
	h = tr.begin("wire.encode", parent)
	_, err = encodeWire(wire.FromAllResult(all))
	tr.end(h)
	if err != nil {
		return modelOutcome{}, fmt.Errorf("encode: %w", err)
	}
	return modelOutcome{results: all.Results, stats: all.Stats}, nil
}

// runArchMix is the arch-mix workload: a fixed set of small random
// architectures, each received as JSON and taken through parse, compile,
// one sweep and the wire encoding; closed loop, one caller, Workers 1.
func runArchMix(c runConfig, rep *report, tr *tracer) error {
	// Set-up: generate the set (several times, median) and warm up.
	var gens []float64
	var models [][]byte
	for i := 0; i < 3; i++ {
		start := time.Now()
		m, err := archModels(archMixSetSeed, archMixModels)
		if err != nil {
			return err
		}
		gens = append(gens, time.Since(start).Seconds())
		models = m
	}
	order := seededPerm(c.seed, len(models))
	var mon *core.Monitor
	if c.trace {
		mon = new(core.Monitor)
	}
	off := &tracer{}
	warm := map[int]modelOutcome{}
	start := time.Now()
	for _, i := range order[:archMixWarmup] {
		out, err := analyzeModel(models[i], nil, off, -1, &sweepAgg{})
		if err != nil {
			return fmt.Errorf("model %d: %w", i, err)
		}
		warm[i] = out
	}
	rep.set("setup_s", median(gens)+time.Since(start).Seconds())

	// Timed loop over the whole set, passCount times; the RSS peak is taken
	// per quarter of the set.
	rss := startRSS()
	defer rss.close()
	var peaks []float64
	n := passCount(c.seconds, 9, 1)
	outcomes := make([]modelOutcome, len(models))
	var lat, walls []float64
	var agg sweepAgg
	before := readRuntime()
	for pass := 0; pass < n; pass++ {
		agg = sweepAgg{}
		begin := time.Now()
		rss.window()
		for k, i := range order {
			if k > 0 && k%(len(order)/4) == 0 {
				peaks = append(peaks, rss.window())
			}
			root := tr.begin("model", -1)
			ms := time.Now()
			out, err := analyzeModel(models[i], mon, tr, root, &agg)
			if err != nil {
				return fmt.Errorf("model %d: %w", i, err)
			}
			lat = append(lat, float64(time.Since(ms).Nanoseconds())/1e6)
			tr.end(root)
			outcomes[i] = out
		}
		walls = append(walls, time.Since(begin).Seconds())
		peaks = append(peaks, rss.window())
	}
	rep.setRuntime(before, readRuntime(), n*len(models))
	wall := median(walls)
	rep.set("wall_s", wall)
	rep.set("jobs_per_s", float64(len(models))/wall)
	rep.set("latency_p50_ms", quantile(lat, 0.5))
	rep.set("states_per_s", float64(agg.stats.Stored)/wall)
	rep.set("peak_rss_mb", median(peaks))
	rep.note("arch-mix: %d models x %d pass(es), %d latency samples, p99 %.3f ms",
		len(models), n, len(lat), quantile(lat, 0.99))

	// Output checks, outside every timed metric.
	bad, exact, total := 0, 0, 0
	for i, out := range outcomes {
		ok := true
		if w, seen := warm[i]; seen && !sameVerdicts(w, out) {
			rep.fail("model %d: warm-up and timed answers differ", i)
			ok = false
		}
		for _, r := range out.results {
			total++
			if r.Exact {
				exact++
			}
		}
		if err := checkTable2Order(models[i], out, int64(i)); err != nil {
			rep.fail("model %d: %v", i, err)
			ok = false
		}
		if !ok {
			bad++
		}
	}
	rep.attempted, rep.failed = n*len(models), n*bad
	rep.set("exact_ratio", float64(exact)/float64(total))
	rep.set("ok_ratio", float64(len(models)-bad)/float64(len(models)))
	if c.trace {
		agg.setCore(rep)
		rep.set("trace.wall_s", wall)
		rep.set("arch.parse_ms", mean(tr.durations("arch.ParseSystem")))
		rep.set("arch.compile_ms", mean(tr.durations("arch.CompileAll")))
		rep.set("wire.encode_ms", mean(tr.durations("wire.encode")))
	}
	return nil
}

// sameVerdicts reports whether two analyses of one model agree on every
// verdict and on the exact work counts.
func sameVerdicts(a, b modelOutcome) bool {
	if len(a.results) != len(b.results) || a.stats.Stored != b.stats.Stored ||
		a.stats.Popped != b.stats.Popped || a.stats.Transitions != b.stats.Transitions {
		return false
	}
	for i := range a.results {
		if a.results[i].String() != b.results[i].String() {
			return false
		}
	}
	return true
}

// checkTable2Order checks the tool ordering of the paper's Table 2 on one
// model: for every exact WCRT, the simulated maximum is at most the exact
// value, and the SymTA/S-style and MPA bounds are at least it.
func checkTable2Order(src []byte, out modelOutcome, seed int64) error {
	sys, reqs, err := arch.ParseSystem(src)
	if err != nil {
		return err
	}
	simRes, err := sim.Simulate(sys, reqs, sim.Options{Seed: seed + 1, HorizonMS: 2000, Replications: 2})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	symRes, err := symta.Analyze(sys, reqs)
	if err != nil {
		return fmt.Errorf("symta: %w", err)
	}
	mpaRes, err := rtc.Analyze(sys, reqs)
	if err != nil {
		return fmt.Errorf("rtc: %w", err)
	}
	for _, r := range out.results {
		name := r.Req.Name
		if r.BeyondHorizon {
			return fmt.Errorf("%s: response beyond the horizon", name)
		}
		if !r.Exact {
			continue // a truncated sweep's lower bound orders with nothing
		}
		if s := simRes[name].MaxMS; s.Cmp(r.MS) > 0 {
			return fmt.Errorf("%s: simulated %s exceeds exact %s", name, s.FloatString(3), r.MS.FloatString(3))
		}
		if b := symRes[name].MS; b.Cmp(r.MS) < 0 {
			return fmt.Errorf("%s: SymTA bound %s below exact %s", name, b.FloatString(3), r.MS.FloatString(3))
		}
		if b := mpaRes[name].MS; b.Cmp(r.MS) < 0 {
			return fmt.Errorf("%s: MPA bound %s below exact %s", name, b.FloatString(3), r.MS.FloatString(3))
		}
	}
	return nil
}
