package fleettest

// The harness proves itself: an in-process cluster boots, serves
// device traffic with node attribution, kills and restarts a member
// with the documented error surfaces, and unions the survivors'
// decision journals.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
)

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drain(r *http.Response) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
}

func TestClusterHarness(t *testing.T) {
	dbs := Databases(t)
	clus, err := NewCluster(ClusterOptions{TraceSeed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	urls := clus.URLs()
	if len(urls) != 3 || len(clus.Nodes) != 3 {
		t.Fatalf("default cluster has %d nodes, want 3", len(clus.Nodes))
	}
	for i := range clus.Nodes {
		if !clus.Alive(i) {
			t.Fatalf("node %d not alive at boot", i)
		}
	}

	// One device, one scripted decision, entering via node 0.
	boot := LooseSpec(dbs[0].DB)
	const id = "harness-0"
	resp := postJSON(t, urls[0]+"/v1/devices", fleet.RegisterRequest{
		ID:       id,
		Database: dbs[0].Name,
		PRC:      0.5,
		Trigger:  "on-violation",
		Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	if resp.Header.Get(cluster.NodeHeader) == "" {
		t.Fatal("register response carries no node attribution")
	}
	drain(resp)

	spec := Script(dbs[0].DB, 3, 1)[0]
	resp = postJSON(t, urls[0]+"/v1/devices/"+id+"/qos", map[string]any{
		"s_max_ms": spec.SMaxMs, "f_min": spec.FMin, "seq": 0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("qos: status %d", resp.StatusCode)
	}
	drain(resp)

	if len(clus.Journal()) == 0 {
		t.Fatal("journal empty after a decision")
	}

	// Kill: the member drains, answers 503, and refuses a second kill.
	ctx := context.Background()
	if err := clus.Kill(ctx, 1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if clus.Alive(1) {
		t.Fatal("node 1 still alive after Kill")
	}
	if err := clus.Kill(ctx, 1); err == nil {
		t.Fatal("second Kill succeeded")
	}
	got, err := http.Get(urls[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("killed node answered %d, want 503", got.StatusCode)
	}
	drain(got)

	// The device is still served by the survivors.
	got, err = http.Get(urls[0] + "/v1/devices/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusOK {
		t.Fatalf("device after kill: status %d", got.StatusCode)
	}
	drain(got)

	// Restart: back on the same address, and a second Restart refuses.
	if err := clus.Restart(ctx, 1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !clus.Alive(1) {
		t.Fatal("node 1 not alive after Restart")
	}
	if err := clus.Restart(ctx, 1); err == nil {
		t.Fatal("second Restart succeeded")
	}
	got, err = http.Get(urls[1] + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusOK {
		t.Fatalf("restarted node ring: status %d", got.StatusCode)
	}
	drain(got)

	// The journal survived the membership churn.
	found := false
	for _, e := range clus.Journal() {
		if e.Device == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("journal lost %s across kill/restart", id)
	}
}

func TestClusterHarnessOptionDefaults(t *testing.T) {
	clus, err := NewCluster(ClusterOptions{Nodes: 2, VNodes: 16, Redirect: true, TraceSeed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	if len(clus.URLs()) != 2 {
		t.Fatalf("cluster has %d nodes, want 2", len(clus.URLs()))
	}
	info := clus.Nodes[0].Node.RingInfo()
	if info.VNodes != 16 || info.Forward != "redirect" {
		t.Fatalf("ring doc = %+v, want 16 vnodes in redirect mode", info)
	}
	for i := range clus.Nodes {
		if want := fmt.Sprintf("node-%d", i); clus.Nodes[i].ID != want {
			t.Fatalf("node %d ID = %q, want %q", i, clus.Nodes[i].ID, want)
		}
	}
}
