package cluster_test

// Version-agreement surface: the /v1/cluster/versions document, the
// VersionsAgree gate the evolve worker consults before a cutover, and
// the CatchUpVersions repair path that reconverges a cluster after the
// (non-atomic) gate let one node cut over first. The matrix pinned
// here: converged cluster agrees; a candidate on one node alone still
// agrees (active versions match); divergent candidates — by version
// number or by content fingerprint — or a one-node cutover disagree;
// convergence (explicit or via catch-up) restores agreement; an
// unreachable peer is an error, never a verdict.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"clrdse/internal/cluster"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
)

// candidateAt clones the cohort's database at the given version.
func candidateAt(db *dse.Database, v uint64) *dse.Database {
	c := *db
	c.Version = v
	return &c
}

func TestClusterVersions(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 47})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	dbs := fleettest.Databases(t)
	name := dbs[0].Name
	ctx := context.Background()

	// The published document names the node and lists every cohort at
	// its boot version.
	resp, err := http.Get(clus.Nodes[0].URL + "/v1/cluster/versions")
	if err != nil {
		t.Fatal(err)
	}
	var doc cluster.VersionsJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Node != "node-0" {
		t.Errorf("versions document names node %q, want node-0", doc.Node)
	}
	found := false
	for _, d := range doc.Databases {
		if d.Database == name {
			found = true
			if d.ActiveVersion != 0 || d.HasCandidate {
				t.Errorf("boot version state = %+v, want active v0 without candidate", d)
			}
		}
	}
	if !found {
		t.Fatalf("versions document %+v misses cohort %q", doc, name)
	}

	agree := func(i int) (bool, error) {
		t.Helper()
		return clus.Nodes[i].Node.VersionsAgree(ctx, name)
	}
	mustAgree := func(i int, want bool, when string) {
		t.Helper()
		ok, err := agree(i)
		if err != nil {
			t.Fatalf("VersionsAgree %s: %v", when, err)
		}
		if ok != want {
			t.Errorf("VersionsAgree %s = %v, want %v", when, ok, want)
		}
	}

	mustAgree(0, true, "on a freshly booted cluster")

	// A candidate installed on one node alone does not block: active
	// versions still match everywhere.
	if err := clus.Nodes[0].Srv.Registry().ProposeDatabase(name, candidateAt(dbs[0].DB, 1)); err != nil {
		t.Fatal(err)
	}
	mustAgree(0, true, "with a candidate on one node only")

	// Divergent candidates block: the nodes would cut over to
	// different versions.
	if err := clus.Nodes[1].Srv.Registry().ProposeDatabase(name, candidateAt(dbs[0].DB, 2)); err != nil {
		t.Fatal(err)
	}
	mustAgree(0, false, "with divergent candidate versions")
	if err := clus.Nodes[1].Srv.Registry().DropCandidate(name); err != nil {
		t.Fatal(err)
	}

	// Divergent candidate *content* under one shared version number
	// blocks too: each worker proposes from its node-local journal, so
	// two nodes can number different databases active+1 — cutting over
	// would split the cluster while the version numbers still "agree".
	if err := clus.Nodes[1].Srv.Registry().ProposeDatabase(name, candidateAt(dbs[1].DB, 1)); err != nil {
		t.Fatal(err)
	}
	mustAgree(0, false, "with same-version divergent candidates")
	if err := clus.Nodes[1].Srv.Registry().DropCandidate(name); err != nil {
		t.Fatal(err)
	}

	// One node cutting over alone leaves the cluster split on the
	// active version: both sides must report disagreement.
	if err := clus.Nodes[0].Srv.Registry().CutoverDatabase(name); err != nil {
		t.Fatal(err)
	}
	mustAgree(0, false, "after a one-node cutover (from the new version)")
	mustAgree(1, false, "after a one-node cutover (from the old version)")

	// Convergence restores agreement.
	for i := 1; i < len(clus.Nodes); i++ {
		reg := clus.Nodes[i].Srv.Registry()
		if err := reg.ProposeDatabase(name, candidateAt(dbs[0].DB, 1)); err != nil {
			t.Fatal(err)
		}
		if err := reg.CutoverDatabase(name); err != nil {
			t.Fatal(err)
		}
	}
	mustAgree(0, true, "after every node cut over")

	// An unknown cohort is a local error.
	if _, err := clus.Nodes[0].Node.VersionsAgree(ctx, "no-such-db"); err == nil {
		t.Error("VersionsAgree accepted an unknown database")
	}
}

// TestVersionsAgreeUnreachablePeer pins the error-not-verdict rule: a
// peer that cannot be reached yields an error, because the caller
// cannot distinguish "behind" from "down" and must defer the cutover.
func TestVersionsAgreeUnreachablePeer(t *testing.T) {
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
	ok, err := node.VersionsAgree(context.Background(), fleettest.Databases(t)[0].Name)
	if err == nil {
		t.Fatal("VersionsAgree returned a verdict for an unreachable peer")
	}
	if ok {
		t.Error("VersionsAgree reported agreement alongside an error")
	}
}

// TestCatchUpAfterSingleNodeCutover pins the repair path for the
// wedge the agreement gate alone cannot prevent: the gate is not
// atomic across nodes, so one node can cut over first — after which
// every peer's VersionsAgree is false forever and all cross-node
// handoffs fail with version skew. A lagging peer must fetch and
// adopt the winner's exact database, restoring agreement.
func TestCatchUpAfterSingleNodeCutover(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 53})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	dbs := fleettest.Databases(t)
	name := dbs[0].Name
	ctx := context.Background()

	reg0 := clus.Nodes[0].Srv.Registry()
	if err := reg0.ProposeDatabase(name, candidateAt(dbs[0].DB, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg0.CutoverDatabase(name); err != nil {
		t.Fatal(err)
	}
	if ok, err := clus.Nodes[1].Node.VersionsAgree(ctx, name); err != nil || ok {
		t.Fatalf("agreement after one-node cutover = %v, %v; want false", ok, err)
	}

	// The winner has nothing to adopt; the laggers adopt its database.
	if adopted, err := clus.Nodes[0].Node.CatchUpVersions(ctx, name); err != nil || adopted {
		t.Fatalf("winner caught up to itself: adopted=%v err=%v", adopted, err)
	}
	for i := 1; i < len(clus.Nodes); i++ {
		adopted, err := clus.Nodes[i].Node.CatchUpVersions(ctx, name)
		if err != nil {
			t.Fatalf("catch-up on node %d: %v", i, err)
		}
		if !adopted {
			t.Fatalf("node %d did not adopt the winner's database", i)
		}
	}
	want, err := reg0.EvolveStatus(name)
	if err != nil {
		t.Fatal(err)
	}
	for i, cn := range clus.Nodes {
		st, err := cn.Srv.Registry().EvolveStatus(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveVersion != want.ActiveVersion || st.ActiveFingerprint != want.ActiveFingerprint {
			t.Errorf("node %d active (v%d, %016x), want (v%d, %016x)",
				i, st.ActiveVersion, st.ActiveFingerprint, want.ActiveVersion, want.ActiveFingerprint)
		}
		ok, err := cn.Node.VersionsAgree(ctx, name)
		if err != nil || !ok {
			t.Errorf("agreement from node %d after catch-up = %v, %v; want true", i, ok, err)
		}
		// Catch-up is idempotent once converged.
		if adopted, err := cn.Node.CatchUpVersions(ctx, name); err != nil || adopted {
			t.Errorf("node %d re-adopted after convergence: adopted=%v err=%v", i, adopted, err)
		}
	}
}

// TestCatchUpConvergesDivergentSameVersion: two nodes race through the
// gate and cut over to different databases both numbered v1. The
// content fingerprint is the deterministic tiebreak — every node
// chases the same winner, so one catch-up pass per node reconverges
// the cluster onto one database.
func TestCatchUpConvergesDivergentSameVersion(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 59})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	dbs := fleettest.Databases(t)
	name := dbs[0].Name
	ctx := context.Background()

	// Node 0 and node 1 cut over to divergent v1 databases; node 2
	// stays at v0.
	for i, db := range []*dse.Database{dbs[0].DB, dbs[1].DB} {
		reg := clus.Nodes[i].Srv.Registry()
		if err := reg.ProposeDatabase(name, candidateAt(db, 1)); err != nil {
			t.Fatal(err)
		}
		if err := reg.CutoverDatabase(name); err != nil {
			t.Fatal(err)
		}
	}
	st0, _ := clus.Nodes[0].Srv.Registry().EvolveStatus(name)
	st1, _ := clus.Nodes[1].Srv.Registry().EvolveStatus(name)
	if st0.ActiveFingerprint == st1.ActiveFingerprint {
		t.Fatal("fixture databases share a fingerprint; divergence test is vacuous")
	}
	if ok, err := clus.Nodes[0].Node.VersionsAgree(ctx, name); err != nil || ok {
		t.Fatalf("divergent same-version actives agree = %v, %v; want false", ok, err)
	}
	wantFP := st0.ActiveFingerprint
	if st1.ActiveFingerprint > wantFP {
		wantFP = st1.ActiveFingerprint
	}

	for i, cn := range clus.Nodes {
		if _, err := cn.Node.CatchUpVersions(ctx, name); err != nil {
			t.Fatalf("catch-up on node %d: %v", i, err)
		}
	}
	for i, cn := range clus.Nodes {
		st, err := cn.Srv.Registry().EvolveStatus(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveVersion != 1 || st.ActiveFingerprint != wantFP {
			t.Errorf("node %d active (v%d, %016x), want (v1, %016x)",
				i, st.ActiveVersion, st.ActiveFingerprint, wantFP)
		}
		ok, err := cn.Node.VersionsAgree(ctx, name)
		if err != nil || !ok {
			t.Errorf("agreement from node %d after tiebreak = %v, %v; want true", i, ok, err)
		}
	}
}

// TestCatchUpRefusesMislabelledDatabase: catch-up must check the stamp
// of the database it actually fetched, not just the stamp the peer
// advertises. A peer whose version document and database document both
// claim a winning (version, fingerprint) but whose database content
// hashes to a different fingerprint must not be adopted — otherwise a
// corrupt or hostile document could install a loser of the
// convergence order.
func TestCatchUpRefusesMislabelledDatabase(t *testing.T) {
	dbs := fleettest.Databases(t)
	name := dbs[0].Name
	content := candidateAt(dbs[0].DB, 1)
	claimed := fleet.DatabaseStamp(candidateAt(dbs[1].DB, 1))
	if claimed == fleet.DatabaseStamp(content) {
		t.Fatal("fixture databases share a stamp; the mislabel is vacuous")
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc any
		switch r.URL.Path {
		case "/v1/cluster/versions":
			doc = cluster.VersionsJSON{Node: "b", Databases: []cluster.DBVersionJSON{{
				Database: name, ActiveVersion: claimed.Version, ActiveFingerprint: claimed.Fingerprint,
			}}}
		case "/v1/cluster/database/" + name:
			doc = cluster.DatabaseJSON{
				Node: "b", Database: name,
				Version: claimed.Version, Fingerprint: claimed.Fingerprint, DB: content,
			}
		default:
			http.NotFound(w, r)
			return
		}
		if err := json.NewEncoder(w).Encode(doc); err != nil {
			t.Error(err)
		}
	}))
	defer peer.Close()

	srv := newFleetServer(t)
	node, err := cluster.New(cluster.Config{
		Self:   "a",
		Peers:  []cluster.Peer{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: peer.URL}},
		Logger: discardLogger(),
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	before, err := srv.Registry().EvolveStatus(name)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := node.CatchUpVersions(context.Background(), name)
	if adopted || err == nil {
		t.Fatalf("catch-up of a mislabelled database: adopted=%v err=%v; want a refusal", adopted, err)
	}
	after, err := srv.Registry().EvolveStatus(name)
	if err != nil {
		t.Fatal(err)
	}
	if after.ActiveVersion != before.ActiveVersion || after.ActiveFingerprint != before.ActiveFingerprint {
		t.Fatalf("mislabelled database installed: active (v%d, %016x), was (v%d, %016x)",
			after.ActiveVersion, after.ActiveFingerprint, before.ActiveVersion, before.ActiveFingerprint)
	}
	if errors.Is(err, fleet.ErrCandidateVersion) {
		t.Errorf("refusal came from the registry's order check, not the stamp check: %v", err)
	}
}
