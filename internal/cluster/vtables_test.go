package cluster_test

// Value-table agreement surface: the /v1/cluster/vtables document, the
// VTablesAgree gate the cohort worker consults before publishing, and
// the CatchUpVTables repair path that reconverges a cluster after one
// node published first. Pinned matrix: a fresh cluster (no tables
// anywhere) agrees; a one-node publish disagrees from both sides;
// divergent same-version tables disagree on content fingerprint;
// catch-up adopts the Stamp-order winner everywhere (a node with no table
// treats any published table as the winner) and is idempotent once
// converged; an unreachable peer is an error, never a verdict.

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/runtime"
)

// boundTable builds a valid value table bound to the registry's active
// database for the cohort, with deterministic synthetic values salted
// so different salts yield different content fingerprints.
func boundTable(t *testing.T, reg *fleet.Registry, name string, version uint64, salt float64) *runtime.ValueTable {
	t.Helper()
	db, fp, err := reg.ActiveSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	vt := &runtime.ValueTable{
		Version: version, Epoch: version, Gamma: 0.8,
		DBVersion: db.Version, DBFingerprint: fp,
		Devices: 2, Events: 100,
		VR:     make([]float64, db.Len()),
		VD:     make([]float64, db.Len()),
		Visits: make([]int, db.Len()),
	}
	for i := range vt.VR {
		vt.VR[i] = -float64(i+1)*0.5 - salt
		vt.VD[i] = float64(i) * 0.25
		vt.Visits[i] = 3 + i
	}
	return vt
}

func TestClusterVTables(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 61})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	name := fleettest.Databases(t)[0].Name
	ctx := context.Background()

	// The published document names the node and lists every cohort,
	// with no table at boot.
	resp, err := http.Get(clus.Nodes[0].URL + "/v1/cluster/vtables")
	if err != nil {
		t.Fatal(err)
	}
	var doc cluster.VTablesJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Node != "node-0" {
		t.Errorf("vtables document names node %q, want node-0", doc.Node)
	}
	found := false
	for _, d := range doc.Databases {
		if d.Database == name {
			found = true
			if d.HasTable || d.Version != 0 {
				t.Errorf("boot vtable state = %+v, want no table", d)
			}
		}
	}
	if !found {
		t.Fatalf("vtables document %+v misses cohort %q", doc, name)
	}

	mustAgree := func(i int, want bool, when string) {
		t.Helper()
		ok, err := clus.Nodes[i].Node.VTablesAgree(ctx, name)
		if err != nil {
			t.Fatalf("VTablesAgree %s: %v", when, err)
		}
		if ok != want {
			t.Errorf("VTablesAgree %s = %v, want %v", when, ok, want)
		}
	}

	mustAgree(0, true, "on a freshly booted cluster")

	// One node publishing alone splits the cluster: both the publisher
	// and a lagging peer must report disagreement.
	v1 := boundTable(t, clus.Nodes[0].Srv.Registry(), name, 1, 0)
	if err := clus.Nodes[0].Srv.Registry().PublishValueTable(name, v1); err != nil {
		t.Fatal(err)
	}
	mustAgree(0, false, "after a one-node publish (from the publisher)")
	mustAgree(1, false, "after a one-node publish (from a lagging peer)")

	// Divergent content under one shared version number disagrees too:
	// each node's worker aggregates its node-local journal, so equal
	// version numbers do not imply equal learned values.
	div := boundTable(t, clus.Nodes[1].Srv.Registry(), name, 1, 7)
	for i := 1; i < len(clus.Nodes); i++ {
		if err := clus.Nodes[i].Srv.Registry().PublishValueTable(name, div); err != nil {
			t.Fatal(err)
		}
	}
	mustAgree(0, false, "with same-version divergent tables")

	// Explicit convergence onto the Stamp-order winner restores agreement.
	winner := v1
	if div.Fingerprint() > v1.Fingerprint() {
		winner = div
	}
	for i := range clus.Nodes {
		if err := clus.Nodes[i].Srv.Registry().AdoptValueTable(name, winner); err != nil {
			t.Fatal(err)
		}
	}
	mustAgree(0, true, "after every node adopted the same table")

	// An unknown cohort is a local error.
	if _, err := clus.Nodes[0].Node.VTablesAgree(ctx, "no-such-db"); err == nil {
		t.Error("VTablesAgree accepted an unknown database")
	}
}

// TestVTablesAgreeUnreachablePeer pins the error-not-verdict rule: the
// caller cannot distinguish "behind" from "down", so it must defer the
// publish rather than conclude anything.
func TestVTablesAgreeUnreachablePeer(t *testing.T) {
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Databases: fleettest.Databases(t),
		Logger:    discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{
		Self: "a",
		Peers: []cluster.Peer{
			{ID: "a", URL: "http://127.0.0.1:1"},
			{ID: "b", URL: "http://127.0.0.1:1"}, // closed port
		},
		Logger: discardLogger(),
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := node.VTablesAgree(context.Background(), fleettest.Databases(t)[0].Name)
	if err == nil {
		t.Fatal("VTablesAgree returned a verdict for an unreachable peer")
	}
	if ok {
		t.Error("VTablesAgree reported agreement alongside an error")
	}
}

// TestCatchUpVTablesAfterSingleNodePublish: one node's worker wins the
// publish race; the others hold no table at all. Catch-up must treat
// the published table as the winner (local (0, 0) loses to any v1),
// fetch the exact table, and adopt it — restoring agreement.
func TestCatchUpVTablesAfterSingleNodePublish(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 67})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	name := fleettest.Databases(t)[0].Name
	ctx := context.Background()

	reg0 := clus.Nodes[0].Srv.Registry()
	v1 := boundTable(t, reg0, name, 1, 0)
	if err := reg0.PublishValueTable(name, v1); err != nil {
		t.Fatal(err)
	}

	// The winner has nothing to adopt; the laggers adopt its table.
	if adopted, err := clus.Nodes[0].Node.CatchUpVTables(ctx, name); err != nil || adopted {
		t.Fatalf("winner caught up to itself: adopted=%v err=%v", adopted, err)
	}
	for i := 1; i < len(clus.Nodes); i++ {
		adopted, err := clus.Nodes[i].Node.CatchUpVTables(ctx, name)
		if err != nil {
			t.Fatalf("catch-up on node %d: %v", i, err)
		}
		if !adopted {
			t.Fatalf("node %d did not adopt the published table", i)
		}
	}
	for i, cn := range clus.Nodes {
		st, err := cn.Srv.Registry().ValueTableStatus(name)
		if err != nil {
			t.Fatal(err)
		}
		if !st.HasTable || st.Version != 1 || st.Fingerprint != v1.Fingerprint() {
			t.Errorf("node %d vtable (has=%v v%d fp %016x), want (v1, %016x)",
				i, st.HasTable, st.Version, st.Fingerprint, v1.Fingerprint())
		}
		ok, err := cn.Node.VTablesAgree(ctx, name)
		if err != nil || !ok {
			t.Errorf("agreement from node %d after catch-up = %v, %v; want true", i, ok, err)
		}
		// Catch-up is idempotent once converged.
		if adopted, err := cn.Node.CatchUpVTables(ctx, name); err != nil || adopted {
			t.Errorf("node %d re-adopted after convergence: adopted=%v err=%v", i, adopted, err)
		}
	}
}

// TestCatchUpVTablesDivergentSameVersion: two nodes' workers publish
// divergent tables both numbered v1. The content fingerprint is the
// deterministic tiebreak — every node chases the same winner.
func TestCatchUpVTablesDivergentSameVersion(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 71})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	name := fleettest.Databases(t)[0].Name
	ctx := context.Background()

	ta := boundTable(t, clus.Nodes[0].Srv.Registry(), name, 1, 0)
	tb := boundTable(t, clus.Nodes[1].Srv.Registry(), name, 1, 13)
	if ta.Fingerprint() == tb.Fingerprint() {
		t.Fatal("salted tables share a fingerprint; divergence test is vacuous")
	}
	if err := clus.Nodes[0].Srv.Registry().PublishValueTable(name, ta); err != nil {
		t.Fatal(err)
	}
	if err := clus.Nodes[1].Srv.Registry().PublishValueTable(name, tb); err != nil {
		t.Fatal(err)
	}
	if ok, err := clus.Nodes[0].Node.VTablesAgree(ctx, name); err != nil || ok {
		t.Fatalf("divergent same-version tables agree = %v, %v; want false", ok, err)
	}
	wantFP := ta.Fingerprint()
	if tb.Fingerprint() > wantFP {
		wantFP = tb.Fingerprint()
	}

	for i, cn := range clus.Nodes {
		if _, err := cn.Node.CatchUpVTables(ctx, name); err != nil {
			t.Fatalf("catch-up on node %d: %v", i, err)
		}
	}
	for i, cn := range clus.Nodes {
		st, err := cn.Srv.Registry().ValueTableStatus(name)
		if err != nil {
			t.Fatal(err)
		}
		if !st.HasTable || st.Version != 1 || st.Fingerprint != wantFP {
			t.Errorf("node %d vtable (v%d, %016x), want (v1, %016x)", i, st.Version, st.Fingerprint, wantFP)
		}
		ok, err := cn.Node.VTablesAgree(ctx, name)
		if err != nil || !ok {
			t.Errorf("agreement from node %d after tiebreak = %v, %v; want true", i, ok, err)
		}
	}
}
