package cluster_test

// Wire-compatibility pins for the four peer-sync documents. Every node
// of a rolling upgrade must read the documents its older and newer
// peers serve, so their bytes are frozen: a fixed fleettest cluster
// state (a shadow candidate and a published value table on node-0) is
// served and compared byte-for-byte with the committed golden files.
// Regenerate with `go test ./internal/cluster -run TestPeerDocumentsGolden -update`
// only for a deliberate, versioned wire change.

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"clrdse/internal/fleet/fleettest"
)

var updateGolden = flag.Bool("update", false, "rewrite the peer-document golden files")

func TestPeerDocumentsGolden(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 2, TraceSeed: 71})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	dbs := fleettest.Databases(t)
	name := dbs[0].Name
	reg := clus.Nodes[0].Srv.Registry()
	if err := reg.ProposeDatabase(name, candidateAt(dbs[1].DB, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.PublishValueTable(name, boundTable(t, reg, name, 1, 0.5)); err != nil {
		t.Fatal(err)
	}

	for _, doc := range []struct{ path, golden string }{
		{"/v1/cluster/versions", "versions.json"},
		{"/v1/cluster/database/" + name, "database.json"},
		{"/v1/cluster/vtables", "vtables.json"},
		{"/v1/cluster/vtable/" + name, "vtable.json"},
	} {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, clus.Nodes[0].URL+doc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", doc.path, resp.StatusCode, got)
		}
		path := filepath.Join("testdata", doc.golden)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s drifted from %s (%d bytes vs %d); peers of other versions could no longer read it",
				doc.path, path, len(got), len(want))
		}
	}
}
