package cluster_test

// Multi-node soak on the fleettest soak harness: a 3-node in-process
// cluster serving an AuRA device fleet through the ring-aware client
// while a seeded schedule kills and restarts nodes between event
// rounds. Scripts are precomputed and membership changes only at
// barriers, so fleettest.CheckSoak asserts the cluster contract
// exactly against a single-node reference run of the same scripts:
// every device answers every event byte-identically (failover is
// invisible in the answers) and ends on exactly one node, and the
// union journal holds, after deduplicating the identical copies
// migration makes, exactly one decision per (device, seq).

import (
	"context"
	"testing"
	"time"

	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/runtime"
)

const (
	clusterSoakSeed      = 137
	clusterSoakTraceSeed = 21
	clusterSoakGamma     = 0.9
)

func soakClient(urls []string) *client.Client {
	return client.New(client.Config{
		Targets:        urls,
		MaxAttempts:    6,
		AttemptTimeout: 5 * time.Second,
		JitterSeed:     clusterSoakSeed,
		// Kills are deliberate; an eager breaker would only delay the
		// re-resolution path under test.
		BreakerThreshold: 1 << 20,
	})
}

func TestClusterSoak(t *testing.T) {
	devices, rounds := 6, 24
	if testing.Short() {
		devices, rounds = 4, 10
	}
	dbs := fleettest.Databases(t)
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range scripts {
		scripts[d] = fleettest.Script(dbs[0].DB, clusterSoakSeed+int64(d), rounds)
	}
	pass := func(nodes int, events []fleettest.SoakEvent) fleettest.SoakResult {
		t.Helper()
		opt := fleettest.ClusterOptions{Nodes: nodes, Databases: dbs, TraceSeed: clusterSoakTraceSeed}
		res, err := fleettest.RunSoak(context.Background(), opt,
			func(urls []string) fleettest.SoakClient { return soakClient(urls) }, clusterSoakGamma, scripts, events)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := pass(1, nil)
	events := fleettest.SoakSchedule(clusterSoakSeed, rounds, 3)
	t.Logf("membership schedule: %+v", events)
	got := pass(3, events)
	for _, v := range fleettest.CheckSoak(want, got) {
		t.Error(v)
	}
}

// TestClusterRedirectMode exercises the 307 path end to end: a
// redirect-mode cluster, a client whose ring mirror is deliberately
// cold, and the assertion that redirects are followed without
// spending retries.
func TestClusterRedirectMode(t *testing.T) {
	dbs := fleettest.Databases(t)
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{
		Nodes: 3, Databases: dbs, Redirect: true, TraceSeed: clusterSoakTraceSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	// No RefreshRing: every call starts at target 0 and must be
	// taught ownership by redirects.
	c := soakClient(clus.URLs())
	ctx := context.Background()
	if err := fleettest.RegisterSoakFleet(ctx, c, dbs[0], 4, clusterSoakGamma); err != nil {
		t.Fatal(err)
	}
	script := fleettest.Script(dbs[0].DB, 5, 6)
	for d := 0; d < 4; d++ {
		for i, spec := range script {
			dec, err := c.QoS(ctx, fleettest.SoakDeviceID(d), uint64(i+1),
				fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin})
			if err != nil {
				t.Fatalf("device %d event %d: %v", d, i, err)
			}
			if dec.Degraded {
				t.Fatalf("device %d event %d: degraded", d, i)
			}
		}
	}
	st := c.Stats()
	if st.Retries != 0 {
		t.Errorf("redirect following spent %d retries; redirects must not burn retry budget", st.Retries)
	}
	if st.BreakerOpens != 0 {
		t.Errorf("redirect following opened %d breakers", st.BreakerOpens)
	}
}
