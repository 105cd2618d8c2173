package fleettest

import (
	"context"
	"testing"
	"time"

	"clrdse/internal/fleet/client"
	"clrdse/internal/runtime"
)

// TestSoakPass: a two-node lockstep pass through a seeded kill/restart
// answers every event byte-identically to a single-node reference pass.
func TestSoakPass(t *testing.T) {
	dbs := Databases(t)
	const devices, rounds = 2, 8
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range scripts {
		scripts[d] = Script(dbs[0].DB, int64(11+d), rounds)
	}
	pass := func(nodes int, events []SoakEvent) [][]string {
		t.Helper()
		clus, err := NewCluster(ClusterOptions{Nodes: nodes, Databases: dbs, TraceSeed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer clus.Close()
		c := client.New(client.Config{
			Targets: clus.URLs(), MaxAttempts: 6, AttemptTimeout: 5 * time.Second,
			JitterSeed: 3, BreakerThreshold: 1 << 20,
		})
		ctx := context.Background()
		if err := c.RefreshRing(ctx); err != nil {
			t.Fatal(err)
		}
		if err := RegisterSoakFleet(ctx, c, dbs[0], devices); err != nil {
			t.Fatal(err)
		}
		out, err := clus.SoakPass(ctx, c, scripts, events)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	events := SoakSchedule(3, rounds, 2)
	if len(events) < 2 || events[0].Restart || !events[1].Restart {
		t.Fatalf("schedule %+v does not kill and restart a node", events)
	}
	want, got := pass(1, nil), pass(2, events)
	for d := range want {
		for r := range want[d] {
			if got[d][r] == "" || got[d][r] != want[d][r] {
				t.Errorf("device %d round %d: %s, reference %s", d, r, got[d][r], want[d][r])
			}
		}
	}
}
