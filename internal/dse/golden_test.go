package dse

// Output pins for the design-time search. The ReD database of a small
// fixed problem — which carries every stage-1 BaseD point, in order,
// ahead of its additional points — is compared byte for byte with
// committed JSON, so any drift in the kernels underneath the fitness
// functions — the list scheduler, the dRC cost model, the genome
// operators — fails here even when old and new code agree with
// themselves (the serial/parallel equivalence test cannot see that).
// Regenerate with `go test ./internal/dse -run TestSearchGolden -update`
// only for a deliberate change of the search's output.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the search golden files")

func TestSearchGolden(t *testing.T) {
	for _, v := range []struct {
		name       string
		csp        bool
		contention bool
	}{
		{name: "default"},
		{name: "contention", contention: true},
		{name: "csp", csp: true},
	} {
		t.Run(v.name, func(t *testing.T) {
			p := testProblem(t, 15, v.csp)
			p.ContentionAware = v.contention
			base, err := RunBase(p, smallGA(3))
			if err != nil {
				t.Fatal(err)
			}
			red, err := RunReD(p, base, smallReD(4))
			if err != nil {
				t.Fatal(err)
			}
			// The golden holds ReD only; BaseD must be its prefix.
			if len(red.ParetoPoints()) != base.Len() {
				t.Fatalf("ReD carries %d stage-1 points, BaseD has %d", len(red.ParetoPoints()), base.Len())
			}
			for i, bp := range base.Points {
				if rp := red.Points[i]; rp.FromReD || *rp != *bp {
					t.Fatalf("ReD point %d is not BaseD point %d", i, i)
				}
			}
			got, err := json.Marshal(red)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "search_"+v.name+".json")
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
				t.Errorf("search output drifted from %s (%d bytes vs %d): BaseD %d points, ReD %d points",
					path, len(got), len(want), base.Len(), red.Len())
			}
		})
	}
}
