package cluster_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clrdse/internal/cluster"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/taskgraph"
)

// FuzzPeerDocuments feeds arbitrary bytes through the peer-sync
// pipeline of all four cluster documents: strict decode, then, for the
// two artifact documents, adoption into a fresh registry. Nothing may
// panic, and the registry may only ever install an artifact that
// passes validation — whatever a corrupt or hostile peer sends.
func FuzzPeerDocuments(f *testing.F) {
	// A synthetic four-point cohort rather than the fleettest fixture:
	// every fuzz worker process rebuilds the setup, and the fixture's
	// design-time search is slow under coverage instrumentation.
	plat := platform.Default()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 3, NumTasks: 4}, plat)
	if err != nil {
		f.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	src := rng.New(5)
	db := &dse.Database{Name: "red"}
	for i := 0; i < 4; i++ {
		db.Points = append(db.Points, &dse.DesignPoint{
			ID: i, M: space.Random(src), MakespanMs: float64(10 + i), Reliability: 0.9, EnergyMJ: float64(5 - i),
		})
	}
	dbs := []fleet.NamedDatabase{{Name: "red", DB: db, Space: space}}
	spaces := map[string]*mapping.Space{"red": space}
	fresh := func(tb testing.TB) *fleet.Registry {
		reg, err := fleet.NewRegistry(dbs, 1)
		if err != nil {
			tb.Fatal(err)
		}
		return reg
	}

	next := &dse.Database{Name: db.Name, Version: 1, Points: db.Points[:3]}
	_, fp, err := fresh(f).ActiveSnapshot("red")
	if err != nil {
		f.Fatal(err)
	}
	vt := &runtime.ValueTable{
		Version: 1, Epoch: 1, Gamma: 0.8, DBFingerprint: fp, Devices: 1, Events: 4,
		VR: []float64{-1, -2, -3, -4}, VD: []float64{0, 0.5, 1, 1.5}, Visits: []int{1, 2, 3, 4},
	}
	// The artifact seeds must adopt, or the fuzzer never reaches the
	// install path.
	if err := fresh(f).AdoptDatabase("red", next); err != nil {
		f.Fatal(err)
	}
	if err := fresh(f).AdoptValueTable("red", vt); err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, doc := range []any{
		cluster.DatabaseJSON{Node: "b", Database: "red", Version: 1, DB: next},
		cluster.VTableJSON{Node: "b", Database: "red", Version: 1, Fingerprint: vt.Fingerprint(), Table: vt},
	} {
		b, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, name := range []string{"versions.json", "vtables.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, b := range seeds {
		f.Add(b)
		f.Add(append(append([]byte(nil), b...), "{}"...)) // trailing value
		f.Add(b[:len(b)/2])                               // truncated
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		// The status documents carry no artifact to adopt: whatever
		// decodes must survive a re-encode unchanged.
		if doc, err := cluster.DecodeDoc[cluster.VersionsJSON](b); err == nil {
			roundTrip(t, doc)
		}
		if doc, err := cluster.DecodeDoc[cluster.VTablesJSON](b); err == nil {
			roundTrip(t, doc)
		}

		if doc, err := cluster.DecodeDoc[cluster.DatabaseJSON](b); err == nil && doc.DB != nil {
			reg := fresh(t)
			stamp := fleet.DatabaseStamp(doc.DB)
			if reg.AdoptDatabase(doc.Database, doc.DB) == nil {
				if err := doc.DB.Validate(spaces[doc.Database]); err != nil {
					t.Fatalf("adopted a database that fails validation: %v", err)
				}
				db, fp, err := reg.ActiveSnapshot(doc.Database)
				if err != nil {
					t.Fatal(err)
				}
				if got := (fleet.Stamp{Version: db.Version, Fingerprint: fp}); got != stamp {
					t.Fatalf("served stamp %v differs from the adopted database's stamp %v", got, stamp)
				}
			}
		}
		if doc, err := cluster.DecodeDoc[cluster.VTableJSON](b); err == nil && doc.Table != nil {
			reg := fresh(t)
			if reg.AdoptValueTable(doc.Database, doc.Table) == nil {
				if err := doc.Table.Validate(); err != nil {
					t.Fatalf("adopted a value table that fails validation: %v", err)
				}
				db, fp, err := reg.ActiveSnapshot(doc.Database)
				if err != nil {
					t.Fatal(err)
				}
				if doc.Table.DBFingerprint != fp || doc.Table.Len() != db.Len() {
					t.Fatal("adopted a value table bound to another database")
				}
			}
		}
	})
}

// roundTrip checks that a decoded peer document re-encodes into bytes
// that decode back to the same document.
func roundTrip[T any](t *testing.T, doc *T) {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cluster.DecodeDoc[T](b)
	if err != nil {
		t.Fatalf("re-encoded document does not decode: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(doc, again) {
		t.Fatalf("document changed across a re-encode:\n%+v\n%+v", doc, again)
	}
}
