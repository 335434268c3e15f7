package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/icrns"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// archMixHorizonMS is the observation horizon every arch-mix model is
// compiled with: well above the largest response a randomSystem model can
// produce, as in the cross-engine tests.
const archMixHorizonMS = 400

// randomSystem generates a small well-formed two-application system with
// light load (no overload), random durations, schedulers and event models:
// the generator of the cross-engine tests (internal/crosscheck), restated
// here because the benchmark may only feed the program generated inputs.
func randomSystem(r *rand.Rand) (*arch.System, []*arch.Requirement) {
	sys := arch.NewSystem("random")
	scheds := []arch.SchedKind{arch.SchedNondet, arch.SchedFP, arch.SchedFPPreempt}
	p1 := sys.AddProcessor("P1", 10, scheds[r.Intn(3)])
	p2 := sys.AddProcessor("P2", 10, scheds[r.Intn(3)])
	bus := sys.AddBus("BUS", 8, scheds[r.Intn(2)]) // nondet or fp

	mkScenario := func(name string, prio int, period int64) *arch.Scenario {
		var model arch.EventModel
		switch r.Intn(4) {
		case 0:
			model = arch.Periodic(arch.MS(period, 1), arch.MS(r.Int63n(period), 1))
		case 1:
			model = arch.PeriodicUnknownOffset(arch.MS(period, 1))
		case 2:
			model = arch.Sporadic(arch.MS(period, 1))
		default:
			model = arch.PeriodicJitter(arch.MS(period, 1), arch.MS(r.Int63n(period)+1, 1))
		}
		sc := sys.AddScenario(name, prio, model)
		steps := 1 + r.Intn(3)
		for i := 0; i < steps; i++ {
			ms := 1 + r.Int63n(4)
			// Durations in whole milliseconds: instructions = ms·10⁴ at
			// 10 MIPS, bytes = ms at 8 kbit/s.
			switch r.Intn(3) {
			case 0:
				sc.Compute("c1_"+name+string(rune('a'+i)), p1, ms*10000)
			case 1:
				sc.Compute("c2_"+name+string(rune('a'+i)), p2, ms*10000)
			default:
				sc.Transfer("m_"+name+string(rune('a'+i)), bus, ms)
			}
		}
		return sc
	}
	// Periods far above total work keep every resource well under
	// saturation for any alignment.
	a := mkScenario("a", 2, 60)
	b := mkScenario("b", 1, 90)
	return sys, []*arch.Requirement{arch.EndToEnd("a", a), arch.EndToEnd("b", b)}
}

// archModels returns n randomSystem models as arch.MarshalSystem JSON, the
// only form the program receives them in.
func archModels(seed int64, n int) ([][]byte, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		sys, reqs := randomSystem(r)
		data, err := arch.MarshalSystem(sys, reqs)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// Serve-fleet mix: the share of requests that repeat an earlier submission
// exactly, and among new submissions the shares of fresh arch models,
// requirement subsets of an earlier arch model, and ta models (the rest are
// case-study cells). Once the catalog holds fleetCatalog submissions every
// further request is a repeat; the catalog is larger than the service's
// 128-entry model and compile caches and its 256-entry result cache, so
// repeats also evict and recompute.
const (
	fleetCatalog   = 600
	fleetRepeat    = 0.35
	fleetFreshArch = 0.70
	fleetSubset    = 0.15
	fleetTA        = 0.10
	// fleetArchBudget caps every arch-mix-style submission (max_states).
	fleetArchBudget = 4000
)

// fleetSetSeed generates the serve-fleet catalog and request sequence,
// fixed on every run like the closed loops' input sets; --seed only
// rotates the sequence.
const fleetSetSeed = 2006

// fleetInputs generates the serve-fleet catalog and the catalog index each
// of n requests sends: either an exact repeat of an earlier submission or a
// new one drawn from the mix while the catalog is not full. The sequence starts at an offset drawn from
// seed and wraps around, so every seed sends the same requests and reuses
// the caches the same way except across the wrap.
func fleetInputs(seed int64, tiny string, n int) ([]api.SubmitRequest, []int, error) {
	r := rand.New(rand.NewSource(fleetSetSeed))
	var cat []api.SubmitRequest
	var archIdx []int // catalog indices of full arch-mix-style submissions
	caseStudy := map[int]int{}
	taSeen := map[string]bool{}
	seq := make([]int, n)
	for i := range seq {
		if len(cat) >= fleetCatalog || (len(cat) > 0 && r.Float64() < fleetRepeat) {
			seq[i] = seq[r.Intn(i)]
			continue
		}
		var s api.SubmitRequest
		switch u := r.Float64(); {
		case u < fleetFreshArch || len(archIdx) == 0:
			sys, reqs := randomSystem(r)
			data, err := arch.MarshalSystem(sys, reqs)
			if err != nil {
				return nil, nil, err
			}
			s = api.SubmitRequest{Kind: "arch", Model: string(data),
				Options: api.SubmitOptions{HorizonMS: archMixHorizonMS, MaxStates: fleetArchBudget}}
			archIdx = append(archIdx, len(cat))
		case u < fleetFreshArch+fleetSubset:
			s = cat[archIdx[r.Intn(len(archIdx))]]
			s.Requirements = []string{[]string{"a", "b"}[r.Intn(2)]}
		case u < fleetFreshArch+fleetSubset+fleetTA:
			k, rec, d, maxConst := 8+r.Intn(7), 2+r.Intn(3), 2+r.Intn(3), 20+5*r.Intn(3)
			model, err := tinyVariant(tiny, k, rec, d)
			if err != nil {
				return nil, nil, err
			}
			key := fmt.Sprint(k, rec, d, maxConst)
			s = api.SubmitRequest{Kind: "ta", Model: model, Queries: tinyQueries,
				Options: api.SubmitOptions{MaxConst: int64(maxConst)}}
			if taSeen[key] {
				s.Options.Order = "df" // a distinct submission of the same model
			}
			taSeen[key] = true
		default:
			col := r.Intn(len(caseStudyCols))
			if j, ok := caseStudy[col]; ok {
				seq[i] = j
				continue
			}
			var err error
			if s, err = caseStudyCell(caseStudyCols[col]); err != nil {
				return nil, nil, err
			}
			caseStudy[col] = len(cat)
		}
		seq[i] = len(cat)
		cat = append(cat, s)
	}
	off := rand.New(rand.NewSource(seed)).Intn(n)
	return cat, append(seq[off:], seq[:off]...), nil
}

// caseStudyCols are the case-study columns the fleet serves: the AL
// combination's cells that close exhaustively in well under a second.
var caseStudyCols = []icrns.Column{icrns.ColPO}

// caseStudyCell is the AL-combination Table 1 group of one column as a
// service submission, with the case study's per-requirement horizons.
func caseStudyCell(col icrns.Column) (api.SubmitRequest, error) {
	sys, byName := icrns.Build(icrns.ComboAL, col, icrns.DefaultConfig())
	names := []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}
	reqs := []*arch.Requirement{byName[names[0]], byName[names[1]]}
	data, err := arch.MarshalSystem(sys, reqs)
	if err != nil {
		return api.SubmitRequest{}, err
	}
	horizons := map[string]int64{}
	for _, n := range names {
		horizons[n] = icrns.HorizonMS(n)
	}
	return api.SubmitRequest{Kind: "arch", Model: string(data), Requirements: names,
		Options: api.SubmitOptions{HorizonMSByReq: horizons}}, nil
}

// tinyQueries is the query set of every ta submission: one exploration
// answering a reachability, a supremum and a deadlock question.
var tinyQueries = []wire.TAQuery{
	{Kind: "reach", Pred: "RAD.busy"},
	{Kind: "sup", Clock: "x", Pred: "RAD.busy"},
	{Kind: "deadlock"},
}

// readTinyTA reads the repository's tiny timed-automata model, the source
// of the ta submissions.
func readTinyTA() (string, error) {
	data, err := os.ReadFile(filepath.Join("testdata", "tiny.ta"))
	if err != nil {
		return "", fmt.Errorf("reading the ta source model (run from the repository root): %w", err)
	}
	return string(data), nil
}

// tinyVariant rewrites the tiny model's generator period k, queue bound rec
// and service time d.
func tinyVariant(tiny string, k, rec, d int) (string, error) {
	out := tiny
	for _, rw := range [][2]string{
		{"gx<=10", fmt.Sprintf("gx<=%d", k)},
		{"gx==10", fmt.Sprintf("gx==%d", k)},
		{"rec<4", fmt.Sprintf("rec<%d", rec)},
		{"x<=3", fmt.Sprintf("x<=%d", d)},
		{"x==3", fmt.Sprintf("x==%d", d)},
	} {
		if !strings.Contains(out, rw[0]) {
			return "", fmt.Errorf("ta source model lacks %q", rw[0])
		}
		out = strings.ReplaceAll(out, rw[0], rw[1])
	}
	return out, nil
}

// fleetWarmup are the set-up submissions, all outside any catalog (their
// ta model keeps the tiny model's own constants, which no variant uses
// with this max_const).
func fleetWarmup(tiny string) []*api.SubmitRequest {
	var out []*api.SubmitRequest
	for _, mc := range []int64{11, 12, 13, 14} {
		out = append(out, &api.SubmitRequest{Kind: "ta", Model: tiny, Queries: tinyQueries,
			Options: api.SubmitOptions{MaxConst: mc}})
	}
	return out
}
