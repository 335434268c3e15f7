// Command tabench is the repository's benchmark: it runs one workload from
// a seed, times only calls into the layers' public functions, checks every
// answer, and prints each metric with its unit followed by one JSON result
// line. See README.md for the workloads and metrics.
//
//	tabench --workload table1 --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
)

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

var workloads = map[string]func(runConfig, *report, *tracer) error{
	"table1":      runTable1,
	"arch-mix":    runArchMix,
	"par-exact":   runParExact,
	"serve-fleet": runServeFleet,
}

func main() {
	var c runConfig
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: table1, arch-mix, par-exact or serve-fleet")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 10, "nominal measured seconds; sets the fixed amount of work")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.traceDir, "trace-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "tabench: need --workload table1|arch-mix|par-exact|serve-fleet, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	rep := newReport()
	tr := &tracer{on: c.trace}
	if err := run(c, rep, tr); err != nil {
		fmt.Fprintln(os.Stderr, "tabench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
		rep.set("trace.residual_ratio", tr.rootResidual())
		path := filepath.Join(c.traceDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "tabench: writing spans:", err)
			os.Exit(1)
		}
		rep.note("spans: %s", path)
	}
	if err := rep.print(os.Stdout, defs); err != nil {
		os.Exit(1)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// passCount is the fixed number of timed passes of a closed-loop workload:
// the nominal seconds over the nominal pass length on a 2-CPU host, at least
// min. It depends on the command line only, never on measured speed, so
// every run of one configuration does the same work.
func passCount(seconds int, nominalPassS float64, min int) int {
	n := int(math.Round(float64(seconds) / nominalPassS))
	if n < min {
		n = min
	}
	return n
}

// seededPerm is the processing order a seed gives to a fixed input set.
func seededPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
