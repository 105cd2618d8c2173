// Package dse implements the design/compile-time exploration of the
// paper's Section 4.2: the system-level multi-objective optimisation
// that produces the stored design-point database used by the run-time
// manager.
//
// Two databases are produced:
//
//   - BaseD — the purely performance-oriented Pareto front w.r.t.
//     (energy J_app, makespan S_app, functional reliability F_app)
//     under the worst-case QoS constraints of Eq. (5). This mirrors
//     the hybrid task-remapping baseline of Rehman et al. [11].
//   - ReD — BaseD plus additional non-dominant design points from the
//     reconfiguration-cost-aware stage of Section 4.2.1: each Pareto
//     point seeds a secondary MOEA that minimises the average
//     reconfiguration distance dRC to the stored set, subject to a
//     bounded degradation of the seed's QoS metrics.
//
// Setting Problem.CSP selects the constraint-satisfaction variant used
// for Table 4 (R(X_i) = 0): the DSE spreads points over the
// (makespan, reliability) QoS plane without optimising energy.
package dse

import (
	"fmt"
	"math"
	gort "runtime"
	"sync"

	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/relmodel"
	"clrdse/internal/schedule"
)

// Problem is one design-time DSE instance.
type Problem struct {
	// Space is the mapping problem (graph, platform, catalogue).
	Space *mapping.Space
	// Env is the fault/aging environment.
	Env relmodel.Env
	// SMaxMs is the loosest makespan bound the system must ever meet:
	// max(S_SPEC) in Eq. (5). Points above it are infeasible.
	SMaxMs float64
	// FMin is the tightest reliability bound's lower end: min(F_SPEC).
	// Points below it are infeasible.
	FMin float64
	// WMaxW, when positive, caps the peak power W_app of Table 3 —
	// thermal/power-delivery envelopes make instantaneous power a hard
	// platform constraint even where energy is only an objective.
	WMaxW float64
	// ContentionAware selects the shared-interconnect scheduling model
	// (schedule.Evaluator.ContentionAware) for every evaluation in the
	// exploration; the default is the paper's additive-latency model.
	ContentionAware bool
	// CSP, when true, drops the energy objective (R(X_i) = 0),
	// exploring the QoS plane only (the Table 4 setting).
	CSP bool
	// Lifetime, when true, adds system MTTF as a further maximised
	// objective — the extension the paper sketches in Section 4.1
	// ("other metrics such as MTTF can be added to R(X_i) for
	// optimization of system lifetime").
	Lifetime bool
	// Stats, when non-nil, receives exploration statistics from
	// RunBase and RunReD (distinct-genome evaluation counts and result
	// sizes) for scalability reporting.
	Stats *Stats
}

// Stats collects design-time exploration effort figures.
type Stats struct {
	// Stage1Evals counts distinct genomes scheduled by the stage-1
	// MOEA (cache misses, i.e. real schedule evaluations).
	Stage1Evals int
	// Stage1Front is the BaseD size.
	Stage1Front int
	// ReDEvals counts distinct genomes scheduled across all per-seed
	// ReD sub-optimisations.
	ReDEvals int
	// ReDExtras is the number of additional points ReD contributed.
	ReDExtras int
}

// Validate checks the problem definition.
func (p *Problem) Validate() error {
	switch {
	case p.Space == nil:
		return fmt.Errorf("dse: nil Space")
	case p.SMaxMs <= 0:
		return fmt.Errorf("dse: SMaxMs must be positive, got %v", p.SMaxMs)
	case p.FMin < 0 || p.FMin >= 1:
		return fmt.Errorf("dse: FMin must be in [0,1), got %v", p.FMin)
	case p.WMaxW < 0:
		return fmt.Errorf("dse: WMaxW must be non-negative, got %v", p.WMaxW)
	}
	return p.Space.Check()
}

// DesignPoint is one stored configuration with its evaluated metrics.
type DesignPoint struct {
	// ID is the point's index in its database.
	ID int
	// M is the configuration.
	M *mapping.Mapping
	// MakespanMs, Reliability, EnergyMJ, PeakPowerW, MTTFMs are the
	// Table 3 system metrics of the configuration.
	MakespanMs  float64
	Reliability float64
	EnergyMJ    float64
	PeakPowerW  float64
	MTTFMs      float64
	// FromReD marks additional non-dominant points contributed by the
	// reconfiguration-cost-aware stage (the '>' markers in Figure 5).
	FromReD bool
}

// Feasible reports whether the point satisfies a QoS specification
// (S_app <= sSpec and F_app >= fSpec) — the filtering step of
// Algorithm 1, line 3.
func (d *DesignPoint) Feasible(sSpecMs, fSpec float64) bool {
	return d.MakespanMs <= sSpecMs && d.Reliability >= fSpec
}

// QoSObjs returns the minimised QoS-space objective vector used for
// dominance comparisons between stored points: (J, S, 1-F), or (S,
// 1-F) in CSP mode.
func (d *DesignPoint) QoSObjs(csp bool) []float64 {
	if csp {
		return []float64{d.MakespanMs, 1 - d.Reliability}
	}
	return []float64{d.EnergyMJ, d.MakespanMs, 1 - d.Reliability}
}

// Database is an ordered set of stored design points.
type Database struct {
	// Name labels the database ("BaseD", "ReD", ...).
	Name string
	// Version numbers the database's evolution generation. The
	// design-time flow produces version 0; each online re-search
	// (Continuous ReD) proposes active version + 1. Decisions journal
	// the version that produced them, so a fleet's history stays
	// attributable across hot swaps.
	Version uint64 `json:",omitempty"`
	// Points are the stored configurations, ID-dense.
	Points []*DesignPoint
}

// Len returns the number of stored points.
func (db *Database) Len() int { return len(db.Points) }

// Envelope returns the stored points' makespan and reliability ranges:
// the QoS region the database can satisfy.
func (db *Database) Envelope() (minS, maxS, minF, maxF float64) {
	minS, maxS = math.Inf(1), math.Inf(-1)
	minF, maxF = math.Inf(1), math.Inf(-1)
	for _, p := range db.Points {
		minS = math.Min(minS, p.MakespanMs)
		maxS = math.Max(maxS, p.MakespanMs)
		minF = math.Min(minF, p.Reliability)
		maxF = math.Max(maxF, p.Reliability)
	}
	return minS, maxS, minF, maxF
}

// ParetoPoints returns the points not contributed by the ReD stage.
func (db *Database) ParetoPoints() []*DesignPoint {
	var ps []*DesignPoint
	for _, p := range db.Points {
		if !p.FromReD {
			ps = append(ps, p)
		}
	}
	return ps
}

// ReDPoints returns the additional points contributed by the ReD
// stage.
func (db *Database) ReDPoints() []*DesignPoint {
	var ps []*DesignPoint
	for _, p := range db.Points {
		if p.FromReD {
			ps = append(ps, p)
		}
	}
	return ps
}

// Mappings returns the stored configurations in ID order.
func (db *Database) Mappings() []*mapping.Mapping {
	ms := make([]*mapping.Mapping, len(db.Points))
	for i, p := range db.Points {
		ms[i] = p.M
	}
	return ms
}

// Evaluator wraps the schedule evaluator with a memoisation cache so
// the GA never schedules the same genome twice.
type Evaluator struct {
	inner *schedule.Evaluator
	mu    sync.Mutex
	cache map[string]*schedule.Result
	// Evals counts distinct evaluations (cache misses).
	Evals int
}

// NewEvaluator builds a caching evaluator for the problem.
func NewEvaluator(p *Problem) *Evaluator {
	return &Evaluator{
		inner: &schedule.Evaluator{Space: p.Space, Env: p.Env, ContentionAware: p.ContentionAware},
		cache: make(map[string]*schedule.Result),
	}
}

// Evaluate returns the schedule result for m, computing it at most
// once per distinct genome.
func (e *Evaluator) Evaluate(m *mapping.Mapping) (*schedule.Result, error) {
	key := m.Key()
	e.mu.Lock()
	if r, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return r, nil
	}
	e.mu.Unlock()
	r, err := e.inner.Evaluate(m)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	// Concurrent callers may race to evaluate the same fresh genome;
	// count the key once so Evals equals the number of distinct
	// genomes regardless of worker interleaving.
	if _, ok := e.cache[key]; !ok {
		e.cache[key] = r
		e.Evals++
	}
	e.mu.Unlock()
	return r, nil
}

// objective builds the stage-1 GA objective for the problem:
// minimise (J, S, 1-F) — or (S, 1-F) in CSP mode — under the
// worst-case constraints of Eq. (5).
func (p *Problem) objective(ev *Evaluator) ga.Objective {
	return func(m *mapping.Mapping) ([]float64, float64, any) {
		res, err := ev.Evaluate(m)
		if err != nil {
			// Engine-produced genomes are always repaired/valid; an
			// error here is a programming bug.
			panic("dse: objective on invalid genome: " + err.Error())
		}
		violation := 0.0
		if res.MakespanMs > p.SMaxMs {
			violation += (res.MakespanMs - p.SMaxMs) / p.SMaxMs
		}
		if res.Reliability < p.FMin {
			violation += p.FMin - res.Reliability
		}
		if p.WMaxW > 0 && res.PeakPowerW > p.WMaxW {
			violation += (res.PeakPowerW - p.WMaxW) / p.WMaxW
		}
		var objs []float64
		if p.CSP {
			objs = []float64{res.MakespanMs, 1 - res.Reliability}
		} else {
			objs = []float64{res.EnergyMJ, res.MakespanMs, 1 - res.Reliability}
		}
		if p.Lifetime {
			objs = append(objs, -res.MTTFMs)
		}
		return objs, violation, res
	}
}

// RunBase executes the stage-1 system-level MOEA and returns the BaseD
// database: the feasible Pareto front w.r.t. the problem's objectives.
func RunBase(p *Problem, params ga.Params) (*Database, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := NewEvaluator(p)
	if params.Workers == 0 {
		// The internal objective is thread-safe; use every core.
		params.Workers = gort.GOMAXPROCS(0)
	}
	engine := &ga.Engine{Space: p.Space, Eval: p.objective(ev), Params: params}
	pop, err := engine.Run()
	if err != nil {
		return nil, err
	}
	db := &Database{Name: "BaseD"}
	for _, ind := range pop.ParetoFront() {
		res := ind.Payload.(*schedule.Result)
		db.Points = append(db.Points, &DesignPoint{
			ID:          len(db.Points),
			M:           ind.M,
			MakespanMs:  res.MakespanMs,
			Reliability: res.Reliability,
			EnergyMJ:    res.EnergyMJ,
			PeakPowerW:  res.PeakPowerW,
			MTTFMs:      res.MTTFMs,
		})
	}
	if len(db.Points) == 0 {
		return nil, fmt.Errorf("dse: stage-1 MOEA found no feasible design point (SMax=%v, FMin=%v)", p.SMaxMs, p.FMin)
	}
	if p.Stats != nil {
		p.Stats.Stage1Evals = ev.Evals
		p.Stats.Stage1Front = len(db.Points)
	}
	return db, nil
}
