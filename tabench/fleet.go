package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/pubsub"
	"repro/internal/wire"
)

const (
	// fleetPerSecond is the closed loop's nominal throughput on a 2-CPU
	// host: a run sends fleetPerSecond × seconds requests, a count fixed by
	// the command line, never by measured speed.
	fleetPerSecond = 1000
	// fleetLimit is the latency limit: a result later than this counts as
	// a miss in jobs_per_s.
	fleetLimit = time.Second
	// fleetPollMin and fleetPollMax bound the status-poll interval while
	// a job runs.
	fleetPollMin = 500 * time.Microsecond
	fleetPollMax = 4 * time.Millisecond
)

// fleet is a booted 2-node mem:// fleet: two managers over one in-process
// broker, each behind a loopback HTTP listener.
type fleet struct {
	broker  pubsub.Broker
	servers []*serve.Server
	https   []*http.Server
	clients []*client.Client
	hc      *http.Client
	done    sync.WaitGroup
}

// bootFleet starts the fleet and a client per node. The clients share one
// transport limited to one connection per node.
func bootFleet() (*fleet, error) {
	f := &fleet{broker: pubsub.NewMemBroker()}
	ids := []string{"n0", "n1"}
	f.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	for _, id := range ids {
		d, c, err := pubsub.NewNode(f.broker, id, ids, 0)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
		s := serve.New(serve.Config{CPUTokens: 1, Dispatch: d, Results: c})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = s.Shutdown(time.Second)
			f.close()
			return nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		f.servers = append(f.servers, s)
		f.https = append(f.https, hs)
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
		f.clients = append(f.clients, client.New("http://"+ln.Addr().String(), f.hc))
	}
	return f, nil
}

// close stops the listeners, the managers and the broker, and waits for
// the serving goroutines.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range f.https {
		_ = hs.Shutdown(ctx)
	}
	for _, s := range f.servers {
		_ = s.Shutdown(10 * time.Second)
	}
	_ = f.broker.Close()
	f.done.Wait()
	f.hc.CloseIdleConnections()
}

// scrape is one reading of the fleet's /v1/metrics: every unlabeled sample
// summed over the nodes.
type scrape map[string]float64

func (f *fleet) scrape(ctx context.Context) (scrape, error) {
	out := scrape{}
	for _, c := range f.clients {
		text, err := c.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(text, "\n") {
			fields := strings.Fields(line)
			if len(fields) != 2 || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				out[fields[0]] += v
			}
		}
	}
	return out, nil
}

// reqOutcome is what a caller saw for one request.
type reqOutcome struct {
	sub       int // catalog index
	node      int // frontend
	start     time.Time
	jobID     string
	created   bool
	latencyMS float64
	submitMS  float64
	result    []byte
	err       error
}

// issue submits one request to its frontend and waits for the result bytes.
func issue(ctx context.Context, c *client.Client, req *api.SubmitRequest, out *reqOutcome) {
	start := time.Now()
	sr, err := c.Submit(ctx, req)
	out.submitMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		out.err = err
		return
	}
	out.jobID, out.created = sr.JobID, sr.Created
	// Poll with a doubling interval: short jobs are seen promptly, long ones
	// do not flood the node's single connection with status requests.
	for wait := fleetPollMin; sr.State != api.StateDone; {
		select {
		case <-ctx.Done():
			out.err = ctx.Err()
			return
		case <-time.After(wait):
		}
		st, err := c.Status(ctx, sr.JobID)
		if err != nil {
			out.err = err
			return
		}
		switch st.State {
		case api.StateFailed, api.StateCanceled:
			out.err = fmt.Errorf("job %s: %s (%s)", st.JobID, st.State, st.Error)
			return
		}
		sr.State = st.State
		if wait < fleetPollMax {
			wait *= 2
		}
	}
	out.result, out.err = c.Result(ctx, sr.JobID)
}

// runServeFleet is the serve-fleet workload: a fixed request sequence
// through a 2-node fleet with one CPU token per node, closed loop, one
// caller per node with one request outstanding, requests dealt to the
// nodes round-robin.
func runServeFleet(c runConfig, rep *report, tr *tracer) error {
	tiny, err := readTinyTA()
	if err != nil {
		return err
	}
	// Set-up, three times (median): generate the catalog and sequence,
	// compute the library's answer to every submission, boot the fleet and
	// warm it up with submissions outside the catalog.
	var setups []float64
	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	var cat []api.SubmitRequest
	var seq []int
	var want [][]byte
	var encodeMS []float64
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		start := time.Now()
		cat, seq, err = fleetInputs(c.seed, tiny, fleetPerSecond*c.seconds)
		if err != nil {
			return err
		}
		want, encodeMS = make([][]byte, len(cat)), nil
		for j := range cat {
			if want[j], err = libraryBytes(cat[j], &encodeMS); err != nil {
				return fmt.Errorf("library answer for submission %d: %w", j, err)
			}
		}
		if f, err = bootFleet(); err != nil {
			return err
		}
		for j, w := range fleetWarmup(tiny) {
			var out reqOutcome
			issue(ctx, f.clients[j%2], w, &out)
			if out.err != nil {
				return fmt.Errorf("warm-up: %w", out.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups))

	before, err := f.scrape(ctx)
	if err != nil {
		return err
	}
	rtBefore := readRuntime()
	rss := startRSS()
	defer rss.close()
	outs := make([]reqOutcome, len(seq))
	var wg sync.WaitGroup
	rss.window()
	t0 := time.Now()
	for node := range f.clients {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := node; i < len(seq); i += len(f.clients) {
				out := &outs[i]
				out.sub, out.node, out.start = seq[i], node, time.Now()
				rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
				issue(rctx, f.clients[node], &cat[seq[i]], out)
				cancel()
				out.latencyMS = float64(time.Since(out.start).Nanoseconds()) / 1e6
			}
		}(node)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	rep.set("peak_rss_mb", rss.window())
	rep.setRuntime(rtBefore, readRuntime(), len(seq))
	after, err := f.scrape(ctx)
	if err != nil {
		return err
	}

	// Output checks, outside every timed metric: every result is the
	// library's answer computed at set-up, and one job's bytes are
	// identical from either frontend.
	byJob := map[string][]byte{}
	var lat, submits []float64
	good, failed, stored := 0, 0, 0.0
	exact, total := 0, 0
	for i := range outs {
		o := &outs[i]
		if o.err == nil {
			o.err = checkServed(o.result, want[o.sub], cat[o.sub].Kind)
		}
		if o.err == nil {
			// One computation's bytes are relayed verbatim to every frontend.
			// A job evicted everywhere is recomputed; its sweep duration
			// tells the computations apart.
			k := o.jobID + "/" + strconv.FormatInt(sweepDurationNS(o.result), 10)
			if prev, ok := byJob[k]; ok && !bytes.Equal(prev, o.result) {
				o.err = fmt.Errorf("job %s: frontends served different bytes for one computation", o.jobID)
			}
			byJob[k] = o.result
		}
		if o.err != nil {
			failed++
			rep.fail("request %d (submission %d, node n%d): %v", i, o.sub, o.node, o.err)
			lat = append(lat, fleetLimit.Seconds()*1e3*10) // a failure misses every limit
			continue
		}
		lat = append(lat, o.latencyMS)
		submits = append(submits, o.submitMS)
		if o.latencyMS <= float64(fleetLimit.Milliseconds()) {
			good++
		}
		e, t, st := resultCounts(o.result)
		exact, total, stored = exact+e, total+t, stored+st
	}
	rep.attempted, rep.failed = len(outs), failed
	rep.set("wall_s", wall)
	rep.set("jobs_per_s", float64(good)/wall)
	rep.set("latency_p50_ms", median(lat))
	rep.set("states_per_s", stored/wall)
	rep.set("exact_ratio", ratio(float64(exact), float64(total)))
	rep.set("ok_ratio", float64(len(outs)-failed)/float64(len(outs)))
	rep.note("serve-fleet latency ms over %d requests: p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f p99 %.2f max %.2f",
		len(lat), quantile(lat, 0.1), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75),
		quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1))
	delta := func(name string) float64 { return after[name] - before[name] }
	subs := delta("taserved_submissions_total")
	rep.note("serve-fleet: %d requests, %d distinct submissions, %d computations seen, %d explorations",
		len(outs), len(cat), len(byJob), int(delta("taserved_explorations_total")))
	if !c.trace {
		return nil
	}
	rep.set("trace.wall_s", wall)
	rep.set("wire.encode_ms", mean(encodeMS))
	rep.set("serve.submit_ms_p50", median(submits))
	rep.set("serve.result_hit_ratio", ratio(delta("taserved_result_cache_hits_total"), subs))
	mh, mm := delta("taserved_model_cache_hits_total"), delta("taserved_model_cache_misses_total")
	rep.set("serve.model_hit_ratio", ratio(mh, mh+mm))
	ch, cm := delta("taserved_compile_cache_hits_total"), delta("taserved_compile_cache_misses_total")
	rep.set("serve.compile_hit_ratio", ratio(ch, ch+cm))
	rep.set("serve.explorations", delta("taserved_explorations_total"))
	rep.set("serve.shed", delta("taserved_shed_total"))
	rep.set("pubsub.dispatch_ms_mean", 1e3*ratio(delta("taserved_pubsub_dispatch_seconds_sum"),
		delta("taserved_pubsub_dispatch_seconds_count")))
	rep.set("pubsub.adopt_ms_mean", 1e3*ratio(delta("taserved_pubsub_adopt_seconds_sum"),
		delta("taserved_pubsub_adopt_seconds_count")))
	rep.set("pubsub.remote_hit_ratio", ratio(delta("taserved_remote_hits_total"), subs))
	rep.set("pubsub.fallbacks", delta("taserved_dispatch_fallbacks_total"))
	return traceJobs(ctx, f, outs, rep, tr)
}

// traceJobs fetches every job's lifecycle profile from both nodes and
// reports the serve span percentiles and, from the sweep profiles of arch
// jobs, the parse and compile phases the service ran. Each request becomes a root span
// holding its client-side submit and the job spans of the node it asked.
func traceJobs(ctx context.Context, f *fleet, outs []reqOutcome, rep *report, tr *tracer) error {
	type key struct {
		node int
		id   string
	}
	profiles := map[key]*api.ProfileResponse{}
	get := func(node int, id string) (*api.ProfileResponse, error) {
		k := key{node, id}
		if p, ok := profiles[k]; ok {
			return p, nil
		}
		p, err := f.clients[node].Profile(ctx, id)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			p, err = nil, nil // the job was never on this node
		}
		if err != nil {
			return nil, err
		}
		profiles[k] = p
		return p, nil
	}
	spans := map[string][]float64{}
	phases := map[string][]float64{} // arch jobs' engine phases
	var overhead []float64
	seen := map[string]bool{}
	for _, o := range outs {
		if o.err != nil || o.jobID == "" {
			continue
		}
		if !seen[o.jobID] {
			// The owner is the node whose profile carries the sweep.
			seen[o.jobID] = true
			for node := range f.clients {
				p, err := get(node, o.jobID)
				if err != nil {
					return err
				}
				if p == nil || len(p.Sweep) == 0 {
					continue
				}
				for _, s := range p.Spans {
					spans[s.Name] = append(spans[s.Name], float64(s.DurNS)/1e6)
				}
				if p.Kind != "arch" {
					continue
				}
				var sweep core.SweepProfile
				if err := json.Unmarshal(p.Sweep, &sweep); err != nil {
					return fmt.Errorf("job %s: sweep profile: %w", o.jobID, err)
				}
				for _, ph := range sweep.Phases {
					phases[ph.Name] = append(phases[ph.Name], float64(ph.DurNS)/1e6)
				}
			}
		}
		if !o.created {
			continue
		}
		p, err := get(o.node, o.jobID)
		if err != nil {
			return err
		}
		if p == nil {
			continue
		}
		root := tr.add("request", -1, o.start, o.start.Add(time.Duration(o.latencyMS*1e6)))
		sum := 0.0
		for _, s := range p.Spans {
			sum += float64(s.DurNS) / 1e6
			tr.add("serve."+s.Name, root, time.Unix(0, s.StartNS), time.Unix(0, s.End()))
		}
		overhead = append(overhead, o.latencyMS-sum)
	}
	rep.set("serve.overhead_ms_p50", median(overhead))
	rep.set("arch.parse_ms", mean(phases["parse"]))
	rep.set("arch.compile_ms", mean(phases["compile"]))
	rep.set("serve.queue_wait_ms_p99", quantile(spans["queue_wait"], 0.99))
	rep.set("serve.admission_wait_ms_p99", quantile(spans["admission_wait"], 0.99))
	rep.set("serve.compute_ms_p50", quantile(spans["compute"], 0.5))
	rep.set("serve.compute_ms_p99", quantile(spans["compute"], 0.99))
	rep.set("serve.replicate_ms_p50", quantile(spans["replicate"], 0.5))
	return nil
}

// libraryBytes is the library's answer to a submission, with the sweep
// duration zeroed: wire.FromAllResult(arch.AnalyzeAll(…)) for arch models,
// the shared TA query run for ta models. For an arch model it appends the
// time of the wire encoding to encodeMS.
func libraryBytes(req api.SubmitRequest, encodeMS *[]float64) ([]byte, error) {
	opts := core.Options{Workers: 1, MaxStates: req.Options.MaxStates}
	if req.Kind == "ta" {
		net, err := wire.ParseTAModel(req.Model, req.Queries, req.Options.MaxConst)
		if err != nil {
			return nil, err
		}
		run, err := wire.NewTARun(net, req.Queries)
		if err != nil {
			return nil, err
		}
		checker, err := core.NewChecker(net)
		if err != nil {
			return nil, err
		}
		stats, err := checker.RunQueries(opts, run.Queries()...)
		if err != nil {
			return nil, err
		}
		resp := run.Response(stats)
		resp.Stats.DurationNS = 0
		return encodeWire(resp)
	}
	sys, all, err := arch.ParseSystem([]byte(req.Model))
	if err != nil {
		return nil, err
	}
	reqs := all
	if len(req.Requirements) > 0 {
		byName := map[string]*arch.Requirement{}
		for _, r := range all {
			byName[r.Name] = r
		}
		reqs = nil
		for _, n := range req.Requirements {
			reqs = append(reqs, byName[n])
		}
	}
	copts := arch.Options{HorizonMS: req.Options.HorizonMS}
	if byReq := req.Options.HorizonMSByReq; len(byReq) > 0 {
		copts.HorizonMSFor = func(r *arch.Requirement) int64 { return byReq[r.Name] }
	}
	res, err := arch.AnalyzeAll(sys, reqs, copts, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp := wire.FromAllResult(res)
	resp.Stats.DurationNS = 0
	data, err := encodeWire(resp)
	*encodeMS = append(*encodeMS, float64(time.Since(start).Nanoseconds())/1e6)
	return data, err
}

// checkServed compares served bytes with the library's answer, sweep
// duration aside.
func checkServed(got, want []byte, kind string) error {
	var norm []byte
	var err error
	if kind == "ta" {
		var r wire.TAResponse
		if err = json.Unmarshal(got, &r); err == nil {
			r.Stats.DurationNS = 0
			norm, err = encodeWire(r)
		}
	} else {
		var r wire.ArchResponse
		if err = json.Unmarshal(got, &r); err == nil {
			r.Stats.DurationNS = 0
			norm, err = encodeWire(r)
		}
	}
	if err != nil {
		return fmt.Errorf("decoding served result: %w", err)
	}
	if !bytes.Equal(norm, want) {
		return fmt.Errorf("served result differs from the library's:\n%s---\n%s", norm, want)
	}
	return nil
}

// sweepDurationNS reads a served result's sweep duration.
func sweepDurationNS(data []byte) int64 {
	var r struct {
		Stats struct {
			DurationNS int64 `json:"duration_ns"`
		} `json:"stats"`
	}
	_ = json.Unmarshal(data, &r) // checkServed has decoded it already
	return r.Stats.DurationNS
}

// resultCounts returns a served result's exact and total WCRT counts and
// its sweep's stored states.
func resultCounts(data []byte) (exact, total int, stored float64) {
	var r struct {
		Results []struct {
			Exact bool `json:"exact"`
		} `json:"results"`
		Stats struct {
			Stored int `json:"stored"`
		} `json:"stats"`
	}
	if json.Unmarshal(data, &r) != nil {
		return 0, 0, 0
	}
	for _, w := range r.Results {
		total++
		if w.Exact {
			exact++
		}
	}
	return exact, total, float64(r.Stats.Stored)
}
