package main

import (
	"fmt"
	"io"
	"testing"
	"time"

	"clrdse/internal/fleet/fleettest"
)

// TestClusterSchedule pins the schedule's contract: kills precede
// their restarts, node 0 is never attacked, all rounds fit, and equal
// seeds reproduce the plan. A single node leaves nothing to attack.
func TestClusterSchedule(t *testing.T) {
	if evs := fleettest.SoakSchedule(7, 24, 1); len(evs) != 0 {
		t.Fatalf("nodes 1: schedule %+v, want empty", evs)
	}
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

// smoke runs the soak both modes share, at tiny dimensions, through
// the function main calls: the checker must find it clean.
func smoke(t *testing.T, nodes int) fleettest.SoakResult {
	t.Helper()
	res, violations, err := runSoak(soakParams{
		dbs: fleettest.Databases(t), nodes: nodes, devices: 2, events: 8, specSeed: 3, chaosSeed: 7,
		intensity: 1, attempts: 6, attemptT: 5 * time.Second, decideTO: 250 * time.Millisecond,
	}, io.Discard)
	if err != nil {
		t.Fatalf("runSoak: %v", err)
	}
	for _, v := range violations {
		t.Error(v)
	}
	return res
}

// TestRunChaosSoakSmoke drives the binary's single-node chaos mode
// end to end.
func TestRunChaosSoakSmoke(t *testing.T) {
	if res := smoke(t, 0); res.Faults == 0 {
		t.Fatal("chaos mode injected no faults")
	}
}

// TestRunClusterSoakSmoke drives the binary's cluster mode end to end.
func TestRunClusterSoakSmoke(t *testing.T) {
	if res := smoke(t, 2); len(res.Devices) != 2 {
		t.Fatalf("cluster mode ended with %d live nodes, want 2", len(res.Devices))
	}
}
