package main

import (
	"fmt"
	"sync"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/pareto"
	"clrdse/internal/runtime"
)

// maxShown bounds the check failures kept for the log.
const maxShown = 20

// checks collects output-check failures; it is safe for concurrent
// use. Any failure makes the run's result incorrect.
type checks struct {
	mu       sync.Mutex
	failures []string
	dropped  int
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < maxShown {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	} else {
		c.dropped++
	}
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failures) == 0
}

// checkAnswer validates one decision against the event that asked for
// it: the answer names the device and sequence number sent, lands on
// a stored point, and a non-violated answer's point meets the
// specification.
func checkAnswer(d *fleet.DecisionJSON, dev string, seq uint64, spec fleet.QoSSpecJSON, db *dse.Database) error {
	switch {
	case d.Device != dev:
		return fmt.Errorf("answer for %s names device %q", dev, d.Device)
	case d.Seq != seq:
		return fmt.Errorf("answer for %s seq %d carries seq %d", dev, seq, d.Seq)
	case d.To < 0 || d.To >= db.Len():
		return fmt.Errorf("answer for %s seq %d moves to point %d of %d", dev, seq, d.To, db.Len())
	case d.From < 0 || d.From >= db.Len():
		return fmt.Errorf("answer for %s seq %d moves from point %d of %d", dev, seq, d.From, db.Len())
	}
	if !d.Violated {
		p := db.Points[d.To]
		if p.MakespanMs > spec.SMaxMs || p.Reliability < spec.FMin {
			return fmt.Errorf("answer for %s seq %d: point %d (%.4g ms, F %.6g) misses spec (%.4g ms, F %.6g) without a violation flag",
				dev, seq, d.To, p.MakespanMs, p.Reliability, spec.SMaxMs, spec.FMin)
		}
	}
	return nil
}

// served is one answered event of a replayed device.
type served struct {
	spec runtime.QoSSpec
	ans  fleet.DecisionJSON
}

// checkReplay feeds a device's full event stream through a detached
// manager built with the device's registration parameters and
// requires the decisions the service answered, field for field.
func checkReplay(mp runtime.ManagerParams, initial runtime.QoSSpec, dev string, events []served) error {
	m, err := runtime.NewManager(mp, initial)
	if err != nil {
		return fmt.Errorf("replay %s: %w", dev, err)
	}
	for i, e := range events {
		d := m.OnQoSChange(e.spec)
		got := e.ans
		if d.From != got.From || d.To != got.To || d.Reconfigured != got.Reconfigured ||
			d.Violated != got.Violated || d.Cost.Total() != got.CostMs {
			return fmt.Errorf("replay %s event %d: detached manager decided %d->%d reconf=%v viol=%v cost=%v, service answered %d->%d reconf=%v viol=%v cost=%v",
				dev, i, d.From, d.To, d.Reconfigured, d.Violated, d.Cost.Total(),
				got.From, got.To, got.Reconfigured, got.Violated, got.CostMs)
		}
	}
	return nil
}

// checkDatabase requires a deployable database whose stored front
// (the stage-1 points) is mutually non-dominated in (energy,
// makespan, 1-F).
func checkDatabase(db *dse.Database, prob *dse.Problem) error {
	if err := db.Validate(prob.Space); err != nil {
		return err
	}
	front := db.ParetoPoints()
	for i, a := range front {
		for j, b := range front {
			if i != j && pareto.Dominates(a.QoSObjs(false), b.QoSObjs(false)) {
				return fmt.Errorf("database %s: stored front point %d dominates point %d", db.Name, a.ID, b.ID)
			}
		}
	}
	return nil
}

// counterCheck compares the service's counters over the timed phase
// with what the callers saw: every answered event is one decision,
// none is a replay, and the journal explains each decision and each
// degraded answer exactly once.
func counterCheck(c *checks, answered int64, d promDelta) {
	dec, rep := d.sum("clr_fleet_decisions_total"), d.sum("clr_fleet_replays_total")
	deg, jrn := d.sum("clr_fleet_degraded_decisions_total"), d.sum("clr_decisions_explained_total")
	if dec != float64(answered) {
		c.failf("fleet decisions counter moved by %v over the timed phase, callers saw %d answered events", dec, answered)
	}
	if rep != 0 {
		c.failf("fleet replays counter moved by %v; every event was sent once", rep)
	}
	if jrn != dec+deg {
		c.failf("journal explained %v decisions, want %v decisions + %v degraded", jrn, dec, deg)
	}
}
