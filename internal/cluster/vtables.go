package cluster

// Cohort value-table sync: the table kind of the peer sync in sync.go.
// A cohort worker publish hot-swaps the value table a cohort's agents
// are seeded from, so the worker gates publishing on VTablesAgree and
// repairs a one-node publish with CatchUpVTables.

import (
	"context"
	"errors"
	"net/http"

	"clrdse/internal/fleet"
	"clrdse/internal/runtime"
)

// VTableVersionJSON is one cohort's value-table state as published on
// GET /v1/cluster/vtables. The fingerprint is the table's content hash
// (runtime.ValueTable.Fingerprint): equal version numbers with
// different fingerprints mean divergent tables, not agreement.
type VTableVersionJSON struct {
	Database    string `json:"database"`
	HasTable    bool   `json:"has_table"`
	Version     uint64 `json:"version,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
}

// VTablesJSON is the body of GET /v1/cluster/vtables.
type VTablesJSON struct {
	Node      string              `json:"node"`
	Databases []VTableVersionJSON `json:"databases"`
}

// VTablesInfo snapshots this node's per-cohort value-table state.
func (n *Node) VTablesInfo() VTablesJSON {
	doc := VTablesJSON{Node: n.self}
	for _, st := range n.reg.ValueTableStatuses() {
		doc.Databases = append(doc.Databases, VTableVersionJSON{
			Database:    st.Database,
			HasTable:    st.HasTable,
			Version:     st.Version,
			Epoch:       st.Epoch,
			Fingerprint: st.Fingerprint,
		})
	}
	return doc
}

func (n *Node) handleVTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.VTablesInfo())
}

// VTableJSON is the body of GET /v1/cluster/vtable/{name}: the node's
// active value table for one cohort, with the version/fingerprint pair
// the catch-up path verifies before adopting it.
type VTableJSON struct {
	Node        string              `json:"node"`
	Database    string              `json:"database"`
	Version     uint64              `json:"version"`
	Fingerprint uint64              `json:"fingerprint"`
	Table       *runtime.ValueTable `json:"table"`
}

func (n *Node) handleVTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	vt, err := n.reg.ValueTable(name)
	if err == nil && vt == nil {
		err = errors.New("no value table published")
	}
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, VTableJSON{
		Node: n.self, Database: name, Version: vt.Version, Fingerprint: vt.Fingerprint(), Table: vt,
	})
}

// vtables is the value-table kind: a cohort has no table until its
// first publish.
var vtables = &syncKind[VTablesJSON, VTableJSON]{
	noun:         "value table",
	statusPath:   "/v1/cluster/vtables",
	artifactPath: "/v1/cluster/vtable/",
	info:         (*Node).VTablesInfo,
	state: func(doc *VTablesJSON, database string) (cohortState, bool) {
		for _, d := range doc.Databases {
			if d.Database == database {
				return cohortState{active: fleet.Stamp{Version: d.Version, Fingerprint: d.Fingerprint}}, true
			}
		}
		return cohortState{}, false
	},
	stamps: func(doc *VTableJSON) (string, fleet.Stamp, fleet.Stamp, error) {
		if doc.Table == nil {
			return "", fleet.Stamp{}, fleet.Stamp{}, errors.New("empty document")
		}
		if err := doc.Table.Validate(); err != nil {
			return "", fleet.Stamp{}, fleet.Stamp{}, err
		}
		claimed := fleet.Stamp{Version: doc.Version, Fingerprint: doc.Fingerprint}
		own := fleet.Stamp{Version: doc.Table.Version, Fingerprint: doc.Table.Fingerprint()}
		return doc.Database, claimed, own, nil
	},
	adopt: func(reg *fleet.Registry, database string, doc *VTableJSON) error {
		return reg.AdoptValueTable(database, doc.Table)
	},
}

// VTablesAgree reports whether every alive peer holds the named
// cohort's value table at this node's state — presence, version and
// content fingerprint. An unreachable peer or a malformed document is
// an error, not a disagreement.
func (n *Node) VTablesAgree(ctx context.Context, database string) (bool, error) {
	return agree(ctx, n, vtables, database)
}

// CatchUpVTables adopts the named cohort's value table from the alive
// peer whose table wins the fleet.Stamp order against ours (a node
// with no table treats any published table as the winner; see
// fleet.AdoptValueTable), and reports whether it did.
func (n *Node) CatchUpVTables(ctx context.Context, database string) (bool, error) {
	return catchUp(ctx, n, vtables, database)
}
