package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/mapping"
	"clrdse/internal/pareto"
	"clrdse/internal/rng"
	"clrdse/internal/schedule"
)

// sink keeps timed results alive so the compiler cannot drop the
// calls that produce them.
var sink any

// timeOp calls op(i) for i over [0, n) in passes until d has elapsed,
// and returns the ns and heap allocations per call.
func timeOp(d time.Duration, n int, op func(i int)) (ns, allocs float64) {
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	calls := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := range n {
			op(i)
		}
		calls += n
	}
	el := time.Since(start)
	goruntime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// sampleLayers replays a fixed sample of mappings — the database's
// points plus seeded random ones — through the schedule evaluator and
// the mapping space's reconfiguration-cost functions.
func sampleLayers(out map[string]float64, cfg *Config, prob *dse.Problem, db *dse.Database, c *checks) {
	sp := prob.Space
	dbMaps := db.Mappings()
	sample := append([]*mapping.Mapping(nil), dbMaps...)
	r := rng.New(cfg.Seed).Split(-2)
	for range cfg.SampleRandom {
		sample = append(sample, sp.Random(r))
	}
	n := len(sample)
	ev := &schedule.Evaluator{Space: sp, Env: prob.Env, ContentionAware: prob.ContentionAware}
	d := cfg.LayerTime
	out["schedule.evaluate_ns"], out["schedule.evaluate_allocs"] = timeOp(d, n, func(i int) {
		res, err := ev.Evaluate(sample[i])
		if err != nil {
			c.failf("schedule.Evaluate on sample mapping %d: %v", i, err)
		}
		sink = res
	})
	out["mapping.drc_ns"], out["mapping.drc_allocs"] = timeOp(d, n, func(i int) { sink = sp.DRC(sample[i], sample[(i+1)%n]) })
	out["mapping.drc_total_ns"], out["mapping.drc_total_allocs"] = timeOp(d, n, func(i int) { sink = sp.DRCTotal(sample[i], sample[(i+1)%n]) })
	out["mapping.avg_drc_to_ns"], out["mapping.avg_drc_to_allocs"] = timeOp(d, n, func(i int) { sink = sp.AvgDRCTo(sample[i], dbMaps) })
	out["mapping.key_ns"], out["mapping.key_allocs"] = timeOp(d, n, func(i int) { sink = sample[i].Key() })
	out["mapping.clone_ns"], out["mapping.clone_allocs"] = timeOp(d, n, func(i int) { sink = sample[i].Clone() })
}

// codecLayers times the CLRB codec on one 64-event batch of the run's
// own traffic: encoding the request, decoding the response.
func codecLayers(out map[string]float64, cfg *Config, events []fleet.BatchEventJSON, results []fleet.BatchResultJSON) error {
	resp, err := fleet.AppendBatchResponse(nil, results)
	if err != nil {
		return fmt.Errorf("encode batch response: %w", err)
	}
	var buf []byte
	out["fleet.clrb_encode_ns"], _ = timeOp(cfg.LayerTime, 1, func(int) {
		buf, err = fleet.AppendBatchRequest(buf[:0], events)
	})
	if err != nil {
		return fmt.Errorf("encode batch request: %w", err)
	}
	var dst []fleet.BatchResultJSON
	out["fleet.clrb_decode_ns"], _ = timeOp(cfg.LayerTime, 1, func(int) {
		dst, err = fleet.DecodeBatchResponse(resp, dst[:0])
	})
	if err != nil {
		return fmt.Errorf("decode batch response: %w", err)
	}
	if len(dst) != len(results) {
		return fmt.Errorf("batch response decoded %d results, want %d", len(dst), len(results))
	}
	return nil
}

// codecAndSampleLayers runs the replays of the traced run that follow
// the timed phase: the CLRB codec on caller 0's latest 64 events, then
// the design-time layers on the served database.
func (e *env) codecAndSampleLayers(out map[string]float64, prob *dse.Problem, c *checks) error {
	cl := e.callers[0]
	if cl.recentN < recentLen {
		return fmt.Errorf("caller 0 answered only %d events, need %d for the codec timing", cl.recentN, recentLen)
	}
	// Oldest first, as they were sent.
	var evs []fleet.BatchEventJSON
	var res []fleet.BatchResultJSON
	for k := range recentLen {
		j := (cl.recentN + k) % recentLen
		evs = append(evs, cl.recent[j])
		res = append(res, cl.recentRes[j])
	}
	if err := codecLayers(out, e.cfg, evs, res); err != nil {
		return err
	}
	sampleLayers(out, e.cfg, prob, e.red.DB, c)
	return nil
}

// frontHV is the hypervolume of the database in (energy, makespan,
// 1-F), as a share of a reference box built from the problem alone.
// The box's far corner is the largest energy of the three constructive
// heuristic seeds, the period bound SMaxMs and the floor 1-FMin. Its
// near corner is what each heuristic reaches on its own objective: the
// min-energy seed's energy, the EFT seed's makespan and the max-rel
// seed's 1-F. Points are clipped to the box.
func frontHV(db *dse.Database, prob *dse.Problem) float64 {
	ev := &schedule.Evaluator{Space: prob.Space, Env: prob.Env, ContentionAware: prob.ContentionAware}
	var res [3]*schedule.Result
	for i, m := range []*mapping.Mapping{
		prob.Space.HeuristicEFT(prob.Env),
		prob.Space.HeuristicMinEnergy(prob.Env),
		prob.Space.HeuristicMaxRel(prob.Env),
	} {
		r, err := ev.Evaluate(m)
		if err != nil {
			return 0
		}
		res[i] = r
	}
	lo := []float64{res[1].EnergyMJ, res[0].MakespanMs, 1 - res[2].Reliability}
	hi := []float64{max(res[0].EnergyMJ, res[1].EnergyMJ, res[2].EnergyMJ), prob.SMaxMs, 1 - prob.FMin}
	ref := make([]float64, 3)
	vol := 1.0
	for i := range ref {
		ref[i] = hi[i] - lo[i]
		vol *= ref[i]
	}
	var pts [][]float64
	for _, p := range db.Points {
		q := p.QoSObjs(false)
		for i := range q {
			q[i] = max(q[i], lo[i]) - lo[i]
		}
		pts = append(pts, q)
	}
	if vol <= 0 {
		return 0
	}
	return pareto.Hypervolume(pts, ref) / vol
}
