package fleet

import (
	"testing"

	"clrdse/internal/dse"
)

// TestStampBeats pins the cluster convergence order: version first,
// then content fingerprint; equal stamps beat neither way.
func TestStampBeats(t *testing.T) {
	for _, c := range []struct {
		a, b Stamp
		want bool
	}{
		{Stamp{2, 1}, Stamp{1, 9}, true},
		{Stamp{1, 9}, Stamp{2, 1}, false},
		{Stamp{1, 5}, Stamp{1, 4}, true},
		{Stamp{1, 4}, Stamp{1, 5}, false},
		{Stamp{1, 4}, Stamp{1, 4}, false},
		{Stamp{1, 0}, Stamp{}, true},
	} {
		if got := c.a.Beats(c.b); got != c.want {
			t.Errorf("%v beats %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestDatabaseStampMatchesServedStamp: the stamp catch-up computes for
// a fetched database is the one the registry serves it under, and
// computing it never panics on a database that has not been validated.
func TestDatabaseStampMatchesServedStamp(t *testing.T) {
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range reg.Databases() {
		if got, want := DatabaseStamp(nd.DB), nd.stamp(); got != want {
			t.Errorf("%s: DatabaseStamp = %v, served %v", nd.Name, got, want)
		}
	}
	DatabaseStamp(&dse.Database{Points: []*dse.DesignPoint{nil, {ID: 1}}})
}
