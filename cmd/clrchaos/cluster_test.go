package main

import (
	"fmt"
	"testing"
	"time"

	"clrdse/internal/fleet/fleettest"
)

// TestClusterSchedule pins the schedule's contract: kills precede
// their restarts, node 0 is never attacked, all rounds fit, and equal
// seeds reproduce the plan.
func TestClusterSchedule(t *testing.T) {
	for _, dims := range []struct {
		seed   int64
		rounds int
		nodes  int
	}{{7, 24, 3}, {137, 10, 3}, {1, 3, 2}, {99, 40, 5}} {
		evs := fleettest.SoakSchedule(dims.seed, dims.rounds, dims.nodes)
		if len(evs) == 0 {
			t.Fatalf("seed %d: empty schedule", dims.seed)
		}
		down := map[int]bool{}
		lastRound := -1
		for _, ev := range evs {
			if ev.Node <= 0 || ev.Node >= dims.nodes {
				t.Fatalf("seed %d: event on node %d outside (0,%d)", dims.seed, ev.Node, dims.nodes)
			}
			if ev.Round < 0 || ev.Round >= dims.rounds {
				t.Fatalf("seed %d: event at round %d outside [0,%d)", dims.seed, ev.Round, dims.rounds)
			}
			if ev.Round < lastRound {
				t.Fatalf("seed %d: schedule out of order", dims.seed)
			}
			lastRound = ev.Round
			if ev.Restart && !down[ev.Node] {
				t.Fatalf("seed %d: restart of node %d that was never killed", dims.seed, ev.Node)
			}
			down[ev.Node] = !ev.Restart
		}
		again := fleettest.SoakSchedule(dims.seed, dims.rounds, dims.nodes)
		if fmt.Sprint(evs) != fmt.Sprint(again) {
			t.Fatalf("seed %d: schedule not reproducible", dims.seed)
		}
	}
}

// TestRunClusterSoakSmoke drives the binary's cluster mode end to end
// at tiny dimensions: the invariant checks must pass clean.
func TestRunClusterSoakSmoke(t *testing.T) {
	dbs, err := fleettest.DatabasesE()
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	err = runClusterSoak(clusterSoakParams{
		dbs:      dbs,
		nodes:    2,
		devices:  2,
		events:   8,
		specSeed: 3,
		killSeed: 7,
		attempts: 6,
		attemptT: 5 * time.Second,
	}, func(format string, args ...any) {
		violations++
		t.Errorf(format, args...)
	})
	if err != nil {
		t.Fatalf("runClusterSoak: %v", err)
	}
	if violations != 0 {
		t.Fatalf("%d invariant violations", violations)
	}
}
