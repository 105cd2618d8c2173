// Package fleettest provides shared fixtures for tests that exercise
// the fleet decision service from outside the fleet package: a
// design-time fixture run once per process on a small synthetic
// application, deterministic QoS event scripts, an in-process
// multi-node cluster, the soak harness every soak runs on (the chaos
// and membership soaks, in tests and in cmd/clrchaos) and the
// cohort-AuRA A/B harness.
package fleettest

import (
	"sync"
	"testing"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/taskgraph"
)

type fixture struct {
	problem *dse.Problem
	base    *dse.Database
	red     *dse.Database
}

var (
	once   sync.Once
	fix    fixture
	fixErr error
)

// build runs the design-time flow once per process. It is the
// TB-free entry behind DatabasesE.
func build() (fixture, error) {
	once.Do(func() {
		plat := platform.Default()
		g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 51, NumTasks: 20}, plat)
		if err != nil {
			fixErr = err
			return
		}
		prob := &dse.Problem{
			Space:  &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
			Env:    relmodel.DefaultEnv(),
			SMaxMs: g.PeriodMs,
			FMin:   0.90,
		}
		base, err := dse.RunBase(prob, ga.Params{PopSize: 28, Generations: 12, Seed: 1})
		if err != nil {
			fixErr = err
			return
		}
		red, err := dse.RunReD(prob, base, dse.ReDParams{
			GA: ga.Params{PopSize: 16, Generations: 8, Seed: 2}, MaxExtraPerSeed: 2,
		})
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{problem: prob, base: base, red: red}
	})
	return fix, fixErr
}

// Databases returns the fixture's decision bases, named "red" (the
// run-time-enriched database) and "based" (the stage-1 Pareto front).
func Databases(tb testing.TB) []fleet.NamedDatabase {
	tb.Helper()
	dbs, err := DatabasesE()
	if err != nil {
		tb.Fatal(err)
	}
	return dbs
}

// DatabasesE is Databases for callers without a testing.TB:
// NewCluster's default databases.
func DatabasesE() ([]fleet.NamedDatabase, error) {
	f, err := build()
	if err != nil {
		return nil, err
	}
	return namedDBs(f), nil
}

func namedDBs(f fixture) []fleet.NamedDatabase {
	return []fleet.NamedDatabase{
		{Name: "red", DB: f.red, Space: f.problem.Space},
		{Name: "based", DB: f.base, Space: f.problem.Space},
	}
}

// Script precomputes a device's deterministic QoS event sequence from
// the database's satisfiable envelope: equal seeds yield identical
// scripts, independent of scheduling.
func Script(db *dse.Database, seed int64, events int) []runtime.QoSSpec {
	return draw(db, rng.New(seed), events)
}

// draw draws events specifications from src through the database's
// QoS model.
func draw(db *dse.Database, src *rng.Source, events int) []runtime.QoSSpec {
	q := runtime.ModelFromDatabase(db)
	stream := q.Stream()
	specs := make([]runtime.QoSSpec, events)
	for i := range specs {
		specs[i] = stream.Next(src)
	}
	return specs
}

// LooseSpec returns a specification every point of the database
// satisfies — a safe boot specification.
func LooseSpec(db *dse.Database) runtime.QoSSpec {
	n := fleet.NamedDatabase{DB: db}
	_, maxS, minF, _ := n.Envelope()
	return runtime.QoSSpec{SMaxMs: maxS, FMin: minF}
}
