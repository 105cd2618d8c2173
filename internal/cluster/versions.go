package cluster

// Database-version sync: the database kind of the peer sync in sync.go.
// A Continuous-ReD cutover hot-swaps the database a cohort serves from,
// and ImportDevice rejects handoff bundles whose producing version is
// not the importer's active version (fleet.ErrVersionSkew). Cutting
// over one node at a time would turn every rebalance during the
// transition into a skew rejection, so the evolve worker gates cutover
// on VersionsAgree and repairs a one-node cutover with CatchUpVersions.

import (
	"context"
	"errors"
	"net/http"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
)

// DBVersionJSON is one database cohort's version pair as published on
// GET /v1/cluster/versions. The fingerprints are the content hashes of
// the respective databases (fleet.NamedDatabase.Fingerprint): equal
// version numbers with different fingerprints mean divergent
// databases, not agreement.
type DBVersionJSON struct {
	Database             string `json:"database"`
	ActiveVersion        uint64 `json:"active_version"`
	ActiveFingerprint    uint64 `json:"active_fingerprint"`
	HasCandidate         bool   `json:"has_candidate,omitempty"`
	CandidateVersion     uint64 `json:"candidate_version,omitempty"`
	CandidateFingerprint uint64 `json:"candidate_fingerprint,omitempty"`
}

// VersionsJSON is the body of GET /v1/cluster/versions.
type VersionsJSON struct {
	Node      string          `json:"node"`
	Databases []DBVersionJSON `json:"databases"`
}

// VersionsInfo snapshots this node's per-database version state.
func (n *Node) VersionsInfo() VersionsJSON {
	doc := VersionsJSON{Node: n.self}
	for _, st := range n.reg.EvolveStatuses() {
		doc.Databases = append(doc.Databases, DBVersionJSON{
			Database:             st.Database,
			ActiveVersion:        st.ActiveVersion,
			ActiveFingerprint:    st.ActiveFingerprint,
			HasCandidate:         st.HasCandidate,
			CandidateVersion:     st.CandidateVersion,
			CandidateFingerprint: st.CandidateFingerprint,
		})
	}
	return doc
}

func (n *Node) handleVersions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.VersionsInfo())
}

// DatabaseJSON is the body of GET /v1/cluster/database/{name}: the
// node's active database for one cohort, with the version/fingerprint
// pair the catch-up path verifies before adopting it.
type DatabaseJSON struct {
	Node        string        `json:"node"`
	Database    string        `json:"database"`
	Version     uint64        `json:"version"`
	Fingerprint uint64        `json:"fingerprint"`
	DB          *dse.Database `json:"db"`
}

func (n *Node) handleDatabase(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	db, fp, err := n.reg.ActiveSnapshot(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, DatabaseJSON{
		Node: n.self, Database: name, Version: db.Version, Fingerprint: fp, DB: db,
	})
}

// databases is the database kind: a cohort always has an active
// database, and may shadow a candidate.
var databases = &syncKind[VersionsJSON, DatabaseJSON]{
	noun:         "database",
	statusPath:   "/v1/cluster/versions",
	artifactPath: "/v1/cluster/database/",
	info:         (*Node).VersionsInfo,
	state: func(doc *VersionsJSON, database string) (cohortState, bool) {
		for _, d := range doc.Databases {
			if d.Database == database {
				return cohortState{
					active: fleet.Stamp{Version: d.ActiveVersion, Fingerprint: d.ActiveFingerprint},
					cand:   fleet.Stamp{Version: d.CandidateVersion, Fingerprint: d.CandidateFingerprint},
				}, true
			}
		}
		return cohortState{}, false
	},
	stamps: func(doc *DatabaseJSON) (string, fleet.Stamp, fleet.Stamp, error) {
		if doc.DB == nil {
			return "", fleet.Stamp{}, fleet.Stamp{}, errors.New("empty document")
		}
		claimed := fleet.Stamp{Version: doc.Version, Fingerprint: doc.Fingerprint}
		return doc.Database, claimed, fleet.DatabaseStamp(doc.DB), nil
	},
	adopt: func(reg *fleet.Registry, database string, doc *DatabaseJSON) error {
		return reg.AdoptDatabase(database, doc.DB)
	},
}

// VersionsAgree reports whether every alive peer serves the named
// database at this node's active version — number and content
// fingerprint — with a matching candidate state. An unreachable peer
// or a malformed document is an error, not a disagreement.
func (n *Node) VersionsAgree(ctx context.Context, database string) (bool, error) {
	return agree(ctx, n, databases, database)
}

// CatchUpVersions adopts the named cohort's database from the alive
// peer whose active database wins the fleet.Stamp order against ours
// (an immediate cutover that drops any local candidate; see
// fleet.AdoptDatabase), and reports whether it did.
func (n *Node) CatchUpVersions(ctx context.Context, database string) (bool, error) {
	return catchUp(ctx, n, databases, database)
}
