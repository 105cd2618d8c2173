package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/ga"
	"clrdse/internal/obs"
	"clrdse/internal/platform"
	"clrdse/internal/taskgraph"
)

// phase is the measured phase of a serving run: its slices and the
// service's counters across it.
type phase struct {
	slices []sliceResult
	delta  promDelta
}

// measure warms the set-up up, then runs the timed phase as a series
// of slices of cfg.Slice. A traced run alternates untraced and traced
// slices, so the two rates it compares share the same conditions.
func (e *env) measure(seconds float64, tr *tracer, c *checks) *phase {
	cfg := e.cfg
	// The set-up's garbage (a whole design-time search) is not the
	// serving phase's to collect.
	goruntime.GC()
	if w := time.Duration(seconds * warmupShare * float64(time.Second)); w > 0 {
		e.runSlice(w, nil, c)
	}
	n := max(1, int(math.Round(seconds*float64(time.Second)/float64(cfg.Slice))))
	if tr != nil {
		n = max(2, n+n%2)
		tr.reset()
	}
	before := scrape(e.servers()...)
	p := &phase{}
	for i := range n {
		var str *tracer
		if tr != nil && i%2 == 1 {
			str = tr
		}
		if tr != nil {
			tr.on.Store(str != nil)
		}
		p.slices = append(p.slices, e.runSlice(cfg.Slice, str, c))
	}
	if tr != nil {
		tr.on.Store(false)
	}
	p.delta = deltaOf(before, scrape(e.servers()...))
	return p
}

// totals sums the slices' attempt counts.
func (p *phase) totals() (attempted, answered, failed, calls int64) {
	for _, s := range p.slices {
		attempted += s.attempted
		answered += s.answered
		failed += s.failed
		calls += s.calls
	}
	return
}

// untraced returns the slices measured with tracing off.
func (p *phase) untraced() []sliceResult {
	var out []sliceResult
	for _, s := range p.slices {
		if !s.traced {
			out = append(out, s)
		}
	}
	return out
}

// serveE2E fills the serving end-to-end metrics from the untraced
// slices: per-slice figures, reported as medians over the slices.
func serveE2E(out map[string]float64, p *phase) {
	var rate, p50, p99, cpu []float64
	for _, s := range p.untraced() {
		rate = append(rate, s.rate())
		p50 = append(p50, float64(quantile(s.lat, 0.50))/1e3)
		p99 = append(p99, float64(quantile(s.lat, 0.99))/1e3)
		cpu = append(cpu, ratio(float64(s.cpu)/1e3, float64(s.answered)))
	}
	attempted, answered, _, _ := p.totals()
	out["decisions_per_s"] = median(rate)
	out["call_p50_us"] = median(p50)
	out["call_p99_us"] = median(p99)
	out["cpu_us_per_decision"] = median(cpu)
	out["answered_ratio"] = ratio(float64(answered), float64(attempted))
}

// serveLayers fills the serving per-layer metrics: spans from the
// traced slices, the service's counters across the whole phase, and
// process figures from the untraced slices.
func serveLayers(out map[string]float64, cfg *Config, p *phase, tr *tracer) {
	d := p.delta
	attempted, _, failed, calls := p.totals()
	out["client.calls"] = float64(calls)
	out["client.failed_ratio"] = ratio(float64(failed), float64(attempted))
	out["client.call_us"] = tr.meanUs(spanCall)
	out["fleet.handler_us"] = tr.meanUs(spanHandler)
	out["client.transport_us"] = out["client.call_us"] - out["fleet.handler_us"]
	out["fleet.requests"] = d[`clr_http_requests_total{endpoint="qos"}`] +
		d[`clr_http_requests_total{endpoint="decide_batch"}`]

	decisions := d.sum("clr_fleet_decisions_total")
	decideN := d.sum("clr_fleet_decision_latency_seconds_count")
	out["fleet.decide_us"] = ratio(d.sum("clr_fleet_decision_latency_seconds_sum")*1e6, decideN)
	stageSum := 0.0
	for _, st := range obs.Stages() {
		sum := d[fmt.Sprintf(`clr_decision_stage_seconds_sum{stage=%q}`, st)]
		cnt := d[fmt.Sprintf(`clr_decision_stage_seconds_count{stage=%q}`, st)]
		out["runtime."+st+"_us"] = ratio(sum*1e6, cnt)
		stageSum += sum
		if st == obs.StageScore {
			out["runtime.search_ratio"] = ratio(cnt, decisions)
		}
	}
	out["fleet.decide_self_us"] = out["fleet.decide_us"] - ratio(stageSum*1e6, decideN)
	perCall := float64(max(1, cfg.Batch))
	out["fleet.handler_self_us"] = out["fleet.handler_us"] - out["fleet.decide_us"]*perCall

	out["fleet.decisions"] = decisions
	out["fleet.replays"] = d.sum("clr_fleet_replays_total")
	out["fleet.degraded"] = d.sum("clr_fleet_degraded_decisions_total")
	out["fleet.timeouts"] = d.sum("clr_fleet_decision_timeouts_total")
	out["fleet.reconfig_ratio"] = ratio(d.sum("clr_fleet_reconfigurations_total"), decisions)
	out["fleet.violation_ratio"] = ratio(d.sum("clr_fleet_violations_total"), decisions)
	out["fleet.batch_events"] = d.sum("clr_fleet_batch_events_total")
	out["fleet.shadow_events"] = d.sum("clr_evolve_shadow_events_total")
	out["fleet.shadow_agree_ratio"] = ratio(d.sum("clr_evolve_shadow_agreements_total"), out["fleet.shadow_events"])
	out["obs.journal_entries"] = d.sum("clr_decisions_explained_total")

	out["cluster.forward_ratio"] = ratio(d.sum("clr_cluster_forwards_total"), float64(calls))
	out["cluster.forward_errors"] = d.sum("clr_cluster_forward_errors_total")
	var local, remote []float64
	var mem memSnap
	ops := 0.0
	var rate, trate []float64
	for _, s := range p.slices {
		if s.traced {
			trate = append(trate, s.rate())
			continue
		}
		rate = append(rate, s.rate())
		if len(s.latRemote) > 0 && len(s.latLocal) > 0 {
			local = append(local, float64(quantile(s.latLocal, 0.5))/1e3)
			remote = append(remote, float64(quantile(s.latRemote, 0.5))/1e3)
		}
		mem = mem.plus(s.mem)
		ops += float64(s.answered)
	}
	out["cluster.forward_hop_us"] = 0
	if len(remote) > 0 {
		out["cluster.forward_hop_us"] = median(remote) - median(local)
	}
	procLayers(out, mem, ops)
	traceOverhead(out, median(rate), median(trate))
}

// traceOverhead reports the traced and untraced rates of one run and
// the share the tracing cost.
func traceOverhead(out map[string]float64, untraced, traced float64) {
	out["trace.rate_untraced"] = untraced
	out["trace.rate_traced"] = traced
	out["trace.overhead_pct"] = 100 * (1 - ratio(traced, untraced))
}

// buildResult is one core.Build of the served database.
type buildResult struct {
	sys       *core.System
	stats     dse.Stats
	wall, cpu time.Duration
}

// appSeed is the application and design-time seed clrserved and
// clrdse use at their default flags.
const appSeed = 1

// serveOptions is the core.Build configuration clrserved uses at its
// default flags.
func serveOptions(cfg *Config) core.Options {
	return core.Options{
		Seed:     appSeed,
		StageOne: ga.Params{PopSize: cfg.ServePop, Generations: cfg.ServeGens},
		ReD:      dse.ReDParams{GA: ga.Params{PopSize: cfg.ServePop / 2, Generations: cfg.ServeGens / 2}},
	}
}

func serveApp(cfg *Config) (*taskgraph.Graph, error) {
	return taskgraph.Generate(taskgraph.GenParams{Seed: appSeed, NumTasks: cfg.ServeTasks}, platform.Default())
}

// buildServed runs the design-time flow clrserved runs at start-up.
func buildServed(cfg *Config) (*buildResult, error) {
	app, err := serveApp(cfg)
	if err != nil {
		return nil, err
	}
	b := &buildResult{}
	opts := serveOptions(cfg)
	opts.Stats = &b.stats
	c0, t0 := cpuTime(), time.Now()
	b.sys, err = core.Build(app, opts)
	b.wall, b.cpu = time.Since(t0), cpuTime()-c0
	return b, err
}

// servedDatabases lists the databases clrserved serves: the ReD
// database devices register against, and the stage-1 database.
func servedDatabases(sys *core.System) []fleet.NamedDatabase {
	return []fleet.NamedDatabase{
		{Name: "red", DB: sys.Database(), Space: sys.Problem.Space},
		{Name: "based", DB: sys.BaseD, Space: sys.Problem.Space},
	}
}

// runServe runs one serving workload.
func runServe(cfg *Config) (*measurement, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	c := &checks{}
	var setups, dseWall, dseCPU []float64
	var e *env
	var b *buildResult
	for r := range cfg.SetupReps {
		t0 := time.Now()
		var err error
		if b, err = buildServed(cfg); err != nil {
			return nil, err
		}
		if e, err = startEnv(cfg, servedDatabases(b.sys), tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		dseWall = append(dseWall, b.wall.Seconds())
		dseCPU = append(dseCPU, b.cpu.Seconds())
		if r < cfg.SetupReps-1 {
			e.close()
		}
	}
	defer e.close()
	fmt.Fprintf(cfg.Log, "%s: served database %d points, %d devices, %d node(s)\n",
		cfg.Workload, e.red.DB.Len(), len(e.devs), len(e.stacks))

	p := e.measure(cfg.Seconds, tr, c)
	m := &measurement{e2e: map[string]float64{}, layers: map[string]float64{}, checks: c}
	m.e2e["heap_mb"] = heapMiB()
	attempted, answered, failed, calls := p.totals()
	m.attempted, m.failed = attempted, failed
	counterCheck(c, answered, p.delta)
	replayed := e.checkReplays(c)
	fmt.Fprintf(cfg.Log, "%s: %d calls (%d events, %d failed) in %d slices, %d device streams replayed\n",
		cfg.Workload, calls, attempted, failed, len(p.slices), replayed)
	logTail(cfg, p)

	m.e2e["setup_s"] = median(setups)
	m.e2e["dse_s"] = median(dseWall)
	m.e2e["dse_cpu_s"] = median(dseCPU)
	m.e2e["front_hv"] = frontHV(b.sys.Database(), b.sys.Problem)
	if err := checkDatabase(b.sys.Database(), b.sys.Problem); err != nil {
		c.failf("served database: %v", err)
	}
	serveE2E(m.e2e, p)
	if !cfg.Trace {
		return m, nil
	}

	serveLayers(m.layers, cfg, p, tr)
	dseLayers(m.layers, b.stats, m.e2e["dse_s"])
	// Stage 1 alone, to split the set-up search into its two stages.
	app, err := serveApp(cfg)
	if err != nil {
		return nil, err
	}
	opts := serveOptions(cfg)
	opts.SkipReD = true
	t0 := tr.now()
	if _, err := core.Build(app, opts); err != nil {
		return nil, err
	}
	t1 := tr.now()
	tr.record(spanStage1, 1, 0, t0, t1)
	m.layers["dse.base_s"] = float64(t1-t0) / 1e9
	m.layers["dse.red_s"] = m.e2e["dse_s"] - m.layers["dse.base_s"]
	if err := e.codecAndSampleLayers(m.layers, b.sys.Problem, c); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg, tr); err != nil {
		return nil, err
	}
	return m, nil
}

// logTail states the latency sample behind call_p99_us, slice by
// slice: its size and how many calls lie beyond the percentile.
func logTail(cfg *Config, p *phase) {
	for i, s := range p.slices {
		if s.traced {
			continue
		}
		p99 := quantile(s.lat, 0.99)
		beyond := 0
		for _, v := range s.lat {
			if v > p99 {
				beyond++
			}
		}
		fmt.Fprintf(cfg.Log, "  slice %d: %d calls, p99 %.0f us with %d calls beyond\n",
			i, len(s.lat), float64(p99)/1e3, beyond)
	}
}

// dseLayers reports the search's effort counts.
func dseLayers(out map[string]float64, st dse.Stats, seconds float64) {
	out["dse.stage1_evals"] = float64(st.Stage1Evals)
	out["dse.red_evals"] = float64(st.ReDEvals)
	out["dse.stage1_front"] = float64(st.Stage1Front)
	out["dse.red_extras"] = float64(st.ReDExtras)
	out["dse.evals_per_s"] = ratio(float64(st.Stage1Evals+st.ReDEvals), seconds)
}

// writeSpans dumps the traced run's spans and logs where they went.
func writeSpans(cfg *Config, tr *tracer) error {
	path, err := tr.dump(cfg.OutDir, cfg.Workload, cfg.Seed)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(cfg.Log, "%s: span dump in %s\n", cfg.Workload, path)
	return nil
}
