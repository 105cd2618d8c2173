package main

import (
	"fmt"
	"time"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/taskgraph"
)

// dseSetupReps is how many times the dse workload constructs its
// application and problem; setup_s is the median.
const dseSetupReps = 101

// newProblem generates clrdse's default application (seed 1) and the
// design-time problem on it, with the defaults core.Build applies. The
// workload seed drives the GA seeds, not the application: a search's
// cost per evaluation depends on the task graph (one seed's
// application searched 25% faster than another's), which would make
// dse_s a property of the seed.
func newProblem(cfg *Config) (*dse.Problem, error) {
	plat := platform.Default()
	app, err := taskgraph.Generate(taskgraph.GenParams{Seed: appSeed, NumTasks: cfg.SearchTasks}, plat)
	if err != nil {
		return nil, err
	}
	prob := &dse.Problem{
		Space:  &mapping.Space{Graph: app, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
		Env:    relmodel.DefaultEnv(),
		SMaxMs: app.PeriodMs,
		FMin:   0.90,
	}
	return prob, prob.Validate()
}

// searchResult is one RunBase + RunReD.
type searchResult struct {
	base, red   *dse.Database
	stats       dse.Stats
	baseS, redS float64
	wall, cpu   time.Duration
}

// search runs the two design-time stages with the clrdse defaults:
// stage-1 GA seeded by the workload seed, ReD at half the stage-1
// population and generations, seeded one above, as core.Build seeds
// them. Each stage is a span when tr is set.
func search(cfg *Config, prob *dse.Problem, tr *tracer, id uint64) (*searchResult, error) {
	s := &searchResult{}
	prob.Stats = &s.stats
	c0, t0 := cpuTime(), time.Now()
	var err error
	s.base, err = dse.RunBase(prob, ga.Params{PopSize: cfg.SearchPop, Generations: cfg.SearchGens, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("stage-1 search: %w", err)
	}
	t1 := time.Now()
	s.red, err = dse.RunReD(prob, s.base, dse.ReDParams{
		GA: ga.Params{PopSize: cfg.SearchPop / 2, Generations: cfg.SearchGens / 2, Seed: cfg.Seed + 1},
	})
	if err != nil {
		return nil, fmt.Errorf("ReD search: %w", err)
	}
	t2 := time.Now()
	s.wall, s.cpu = t2.Sub(t0), cpuTime()-c0
	s.baseS, s.redS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	if tr != nil {
		e0 := int64(t0.Sub(tr.epoch))
		e1 := int64(t1.Sub(tr.epoch))
		e2 := int64(t2.Sub(tr.epoch))
		tr.record(spanBase, id, 0, e0, e1)
		tr.record(spanReD, id, 0, e1, e2)
	}
	prob.Stats = nil
	return s, nil
}

// runDSE runs the design-time workload: set-up is application and
// problem construction; the measured work is one full search (two in a
// traced run, the first untraced), then the new database is served
// with serve-batch's traffic, without the shadow candidate.
func runDSE(cfg *Config) (*measurement, error) {
	c := &checks{}
	m := &measurement{e2e: map[string]float64{}, layers: map[string]float64{}, checks: c}
	var setups []float64
	var prob *dse.Problem
	for range dseSetupReps {
		t0 := time.Now()
		var err error
		if prob, err = newProblem(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.e2e["setup_s"] = median(setups)

	s, err := search(cfg, prob, nil, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "dse: %d tasks, BaseD %d points, ReD %d points, %.2f s (stage 1 %.2f s, ReD %.2f s), evals %+v\n",
		cfg.SearchTasks, s.base.Len(), s.red.Len(), s.wall.Seconds(), s.baseS, s.redS, s.stats)
	if err := checkDatabase(s.red, prob); err != nil {
		c.failf("searched database: %v", err)
	}
	m.e2e["dse_s"] = s.wall.Seconds()
	m.e2e["dse_cpu_s"] = s.cpu.Seconds()
	m.e2e["front_hv"] = frontHV(s.red, prob)

	var tr *tracer
	var traced *searchResult
	if cfg.Trace {
		tr = newTracer()
		if traced, err = search(cfg, prob, tr, 1); err != nil {
			return nil, err
		}
		if traced.stats != s.stats {
			c.failf("search effort differs between two searches of one seed: %+v vs %+v", s.stats, traced.stats)
		}
		dseLayers(m.layers, traced.stats, traced.wall.Seconds())
		m.layers["dse.base_s"] = traced.baseS
		m.layers["dse.red_s"] = traced.redS
	}

	// Deploy the new database and serve it.
	dbs := []fleet.NamedDatabase{
		{Name: "red", DB: s.red, Space: prob.Space},
		{Name: "based", DB: s.base, Space: prob.Space},
	}
	e, err := startEnv(cfg, dbs, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	_, fp, err := e.stacks[0].srv.Registry().ActiveSnapshot("red")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "dse: database fingerprint %016x\n", fp)

	p := e.measure(cfg.Seconds, tr, c)
	m.e2e["heap_mb"] = heapMiB()
	attempted, answered, failed, _ := p.totals()
	m.attempted, m.failed = attempted, failed
	counterCheck(c, answered, p.delta)
	e.checkReplays(c)
	logTail(cfg, p)
	serveE2E(m.e2e, p)
	if !cfg.Trace {
		return m, nil
	}
	serveLayers(m.layers, cfg, p, tr)
	// The tracing overhead of this workload is the search's: the
	// untraced first search against the traced second one.
	traceOverhead(m.layers, 1/s.wall.Seconds(), 1/traced.wall.Seconds())
	if err := e.codecAndSampleLayers(m.layers, prob, c); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg, tr); err != nil {
		return nil, err
	}
	return m, nil
}
