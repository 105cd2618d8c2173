package cluster

// Peer sync for replicated artifacts. A cohort replicates two artifacts
// across the cluster: its database (Continuous ReD) and its shared
// value table (cohort AuRA). Each node's background worker proposes or
// aggregates from its node-local journal, so two nodes can hold
// divergent artifacts under one version number, and no swap is atomic
// across nodes. Both kinds therefore run one protocol, written once
// here and bound to a kind by a syncKind:
//
//   - agree is the swap gate (VersionsAgree before a cutover,
//     VTablesAgree before a publish): every alive peer must report the
//     same state for the cohort — version AND content fingerprint —
//     before any node swaps. An unreachable peer or a malformed
//     document is an error, not a verdict: the caller cannot tell
//     "behind" from "down", so it defers.
//   - catchUp is the repair path (CatchUpVersions, CatchUpVTables): the
//     gate is not atomic, so one node can swap first, after which every
//     other node's gate fails forever. A node that finds a peer ahead
//     of it in the fleet.Stamp order fetches that peer's exact artifact
//     and adopts it, but only when the artifact's own stamp and cohort
//     name are the ones the peer advertised. Unreachable peers are
//     skipped: catch-up is best-effort and re-runs on every tick.
//
// Peer documents — these four, handoff bundles and membership flips —
// are decoded strictly: a body past its size limit or with trailing
// bytes after the JSON value is rejected.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"clrdse/internal/fleet"
)

// Size limits for peer documents: status and membership documents are
// small; artifact documents and handoff bundles carry a whole database
// or a device's journal.
const (
	statusLimit   = 1 << 20
	artifactLimit = 64 << 20
)

// cohortState is one cohort's replicated state as a node reports it:
// the active artifact's stamp (zero for a value table before its first
// publish) and, for databases, the shadow candidate's (zero without
// one; a candidate advances the version, so its stamp is never zero).
type cohortState struct{ active, cand fleet.Stamp }

// agrees reports whether two nodes serve the same artifact and would
// not swap to different ones: a peer shadowing a different candidate
// than ours — by version or by content — would cut over to a different
// database, so the views must converge first.
func (s cohortState) agrees(o cohortState) bool {
	var none fleet.Stamp
	return s.active == o.active && (s.cand == none || o.cand == none || s.cand == o.cand)
}

// syncKind binds one artifact kind to the sync loops. S is the kind's
// status document, A its per-cohort artifact document.
type syncKind[S, A any] struct {
	noun                     string
	statusPath, artifactPath string
	// info snapshots this node's status document.
	info func(n *Node) S
	// state finds one cohort's state in a status document.
	state func(doc *S, database string) (cohortState, bool)
	// stamps reads an artifact document: the cohort it names, the
	// stamp it claims, and the stamp of the artifact it carries.
	stamps func(doc *A) (database string, claimed, own fleet.Stamp, err error)
	// adopt installs the document's artifact.
	adopt func(reg *fleet.Registry, database string, doc *A) error
}

// local is this node's state for the cohort.
func (k *syncKind[S, A]) local(n *Node, database string) (cohortState, error) {
	doc := k.info(n)
	st, ok := k.state(&doc, database)
	if !ok {
		return cohortState{}, fmt.Errorf("%w: %q", fleet.ErrNoDatabase, database)
	}
	return st, nil
}

// agree reports whether every alive peer holds the cohort's artifact
// in this node's state (see the file comment).
func agree[S, A any](ctx context.Context, n *Node, k *syncKind[S, A], database string) (bool, error) {
	local, err := k.local(n, database)
	if err != nil {
		return false, err
	}
	peers, urls := n.alivePeers()
	for _, id := range peers {
		doc, err := getJSON[S](ctx, n, urls[id]+k.statusPath, statusLimit)
		if err != nil {
			return false, fmt.Errorf("cluster: %s from %s: %w", k.statusPath, id, err)
		}
		if st, ok := k.state(doc, database); !ok || !st.agrees(local) {
			return false, nil
		}
	}
	return true, nil
}

// catchUp adopts the cohort's artifact from the alive peer whose
// artifact wins the Stamp order against ours, and reports whether it
// did (see the file comment).
func catchUp[S, A any](ctx context.Context, n *Node, k *syncKind[S, A], database string) (bool, error) {
	local, err := k.local(n, database)
	if err != nil {
		return false, err
	}
	peers, urls := n.alivePeers()
	// A node with no table holds the zero stamp, which every published
	// table beats and which beats nothing.
	best, bestPeer := local.active, ""
	for _, id := range peers {
		doc, err := getJSON[S](ctx, n, urls[id]+k.statusPath, statusLimit)
		if err != nil {
			continue
		}
		if st, ok := k.state(doc, database); ok && st.active.Beats(best) {
			best, bestPeer = st.active, id
		}
	}
	if bestPeer == "" {
		return false, nil
	}

	doc, err := getJSON[A](ctx, n, urls[bestPeer]+k.artifactPath+database, artifactLimit)
	if err != nil {
		return false, fmt.Errorf("cluster: %s from %s: %w", k.noun, bestPeer, err)
	}
	name, claimed, own, err := k.stamps(doc)
	if err != nil {
		return false, fmt.Errorf("cluster: %s from %s: %w", k.noun, bestPeer, err)
	}
	if name != database || claimed != own {
		return false, fmt.Errorf("cluster: %s from %s: document claims %q %v but carries %v",
			k.noun, bestPeer, name, claimed, own)
	}
	if own != best {
		// The peer moved between the two fetches; the next tick
		// re-reads its state.
		return false, nil
	}
	if err := k.adopt(n.reg, database, doc); err != nil {
		return false, fmt.Errorf("cluster: adopt %s %v from %s: %w", k.noun, own, bestPeer, err)
	}
	n.log.InfoContext(ctx, "adopted peer "+k.noun,
		"db", database, "peer", bestPeer, "version", own.Version, "was", local.active.Version)
	return true, nil
}

// alivePeers lists the alive members other than self, with the URL map.
func (n *Node) alivePeers() ([]string, map[string]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var peers []string
	for _, id := range n.aliveMembersLocked() {
		if id != n.self {
			peers = append(peers, id)
		}
	}
	return peers, n.urls
}

// getJSON GETs one peer document and decodes it with decodeDoc.
func getJSON[T any](ctx context.Context, n *Node, url string, limit int64) (doc *T, err error) {
	err = n.call(ctx, http.MethodGet, url, nil, func(r io.Reader) error {
		doc, err = decodeDoc[T](io.LimitReader(r, limit))
		return err
	})
	return doc, err
}

// decodeDoc decodes exactly one JSON value. Trailing bytes after it are
// an error, the rule the fleet's request decoder follows.
func decodeDoc[T any](r io.Reader) (*T, error) {
	var doc T
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing data after JSON value")
	}
	return &doc, nil
}
