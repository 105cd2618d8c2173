package cluster_test

// Multi-node soak: a 3-node in-process cluster serving a device fleet
// through the ring-aware client while a seeded schedule kills and
// restarts nodes between event rounds. The run is deterministic —
// lockstep rounds with barriers, membership changes only at barriers,
// scripted specs — so three hard invariants are asserted exactly:
//
//  1. no device is lost: every device answers every event and ends
//     registered on exactly one node;
//  2. no sequence is answered twice: the union of every node's
//     decision journal holds, after deduplicating the identical
//     copies migration makes, exactly one decision per (device, seq);
//  3. decisions are byte-identical to a single-node reference run of
//     the same scripts — failover is invisible in the answers.

import (
	"context"
	"encoding/json"
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
)

func soakDims(t *testing.T) (devices, rounds int) {
	t.Helper()
	if testing.Short() {
		return 4, 10
	}
	return 6, 24
}

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

// registerSoakFleet registers the soak devices on the first database.
func registerSoakFleet(t *testing.T, c *client.Client, dbs []fleet.NamedDatabase, devices int) {
	t.Helper()
	if err := fleettest.RegisterSoakFleet(context.Background(), c, dbs[0], devices); err != nil {
		t.Fatal(err)
	}
}

// runSoakPass runs one lockstep pass (fleettest.Cluster.SoakPass).
func runSoakPass(t *testing.T, clus *fleettest.Cluster, c *client.Client, scripts [][]runtime.QoSSpec, events []fleettest.SoakEvent) [][]string {
	t.Helper()
	out, err := clus.SoakPass(context.Background(), c, scripts, events)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestClusterSoak(t *testing.T) {
	devices, rounds := soakDims(t)
	dbs := fleettest.Databases(t)

	// Scripts are derived before anything runs: both passes see the
	// identical event streams.
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range scripts {
		scripts[d] = fleettest.Script(dbs[0].DB, clusterSoakSeed+int64(d), rounds)
	}

	// Reference pass: one node, no membership events.
	ref, err := fleettest.NewCluster(fleettest.ClusterOptions{
		Nodes: 1, Databases: dbs, TraceSeed: clusterSoakTraceSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refClient := soakClient(ref.URLs())
	registerSoakFleet(t, refClient, dbs, devices)
	want := runSoakPass(t, ref, refClient, scripts, nil)

	// Cluster pass: three nodes, seeded kill/restart mid-schedule.
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{
		Nodes: 3, Databases: dbs, TraceSeed: clusterSoakTraceSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	c := soakClient(clus.URLs())
	if err := c.RefreshRing(context.Background()); err != nil {
		t.Fatal(err)
	}
	registerSoakFleet(t, c, dbs, devices)
	events := fleettest.SoakSchedule(clusterSoakSeed, rounds, 3)
	t.Logf("membership schedule: %+v", events)
	got := runSoakPass(t, clus, c, scripts, events)

	// Invariant 3: byte-identical to the single-node reference.
	for d := 0; d < devices; d++ {
		for r := 0; r < rounds; r++ {
			if got[d][r] != want[d][r] {
				t.Errorf("device %d round %d: cluster answer diverged\n cluster: %s\n  single: %s",
					d, r, got[d][r], want[d][r])
			}
		}
	}

	// Invariant 1: no device lost. Every device is registered on
	// exactly one live node with its full decision history.
	total := 0
	owners := make(map[string]int)
	for i, cn := range clus.Nodes {
		if !clus.Alive(i) {
			continue
		}
		reg := cn.Srv.Registry()
		total += reg.Len()
		for d := 0; d < devices; d++ {
			if info, err := reg.Get(fleettest.SoakDeviceID(d)); err == nil {
				owners[fleettest.SoakDeviceID(d)]++
				if info.Stats.Decisions != int64(rounds) {
					t.Errorf("device %d on %s: %d decisions, want %d", d, cn.ID, info.Stats.Decisions, rounds)
				}
			}
		}
	}
	if total != devices {
		t.Errorf("cluster holds %d devices, want %d", total, devices)
	}
	for d := 0; d < devices; d++ {
		if owners[fleettest.SoakDeviceID(d)] != 1 {
			t.Errorf("device %d registered on %d nodes, want exactly 1", d, owners[fleettest.SoakDeviceID(d)])
		}
	}

	// Invariant 2: no sequence answered twice. Migration copies
	// journal entries verbatim, so identical duplicates are expected;
	// after deduplicating them, each (device, seq) must have decided
	// exactly once.
	type key struct {
		device string
		seq    uint64
	}
	unique := make(map[string]bool)
	perSeq := make(map[key]int)
	for _, je := range clus.Journal() {
		if je.Entry.Degraded {
			t.Errorf("degraded journal entry on %s: %+v", je.Node, je.Entry)
			continue
		}
		b, err := json.Marshal(je.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if unique[string(b)] {
			continue // identical copy carried by a migration
		}
		unique[string(b)] = true
		perSeq[key{je.Entry.Device, je.Entry.Seq}]++
	}
	for d := 0; d < devices; d++ {
		for r := 0; r < rounds; r++ {
			k := key{fleettest.SoakDeviceID(d), uint64(r + 1)}
			if perSeq[k] != 1 {
				t.Errorf("(device %s, seq %d): %d distinct decisions, want exactly 1", k.device, k.seq, perSeq[k])
			}
		}
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
	registerSoakFleet(t, c, dbs, 4)
	ctx := context.Background()
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
