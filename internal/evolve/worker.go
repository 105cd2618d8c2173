package evolve

// The background evolution loop. A Worker drives one database cohort
// through the Continuous-ReD state machine:
//
//	no candidate  --propose-->  shadow window  --agree-->  cutover
//	                                 |
//	                                 +-------diverge-----> drop
//
// Each Step is one transition attempt: with no candidate installed it
// folds the cohort's journal and proposes the next version; with a
// candidate whose shadow window has accumulated enough dual-served
// events it cuts over (agreement at or above threshold, and — in a
// cluster — every alive peer active on the same version) or withdraws
// the candidate. Cutover and rollback themselves live in the fleet
// registry; the worker only decides when to invoke them.

import (
	"context"
	"errors"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/obs"
)

// Registry is the slice of *fleet.Registry the worker drives. An
// interface so tests can script cohort state without a full fleet.
type Registry interface {
	ActiveDatabase(name string) (*dse.Database, error)
	DecisionsForDatabase(name string, limit int) []obs.Entry
	ProposeDatabase(name string, db *dse.Database) error
	CutoverDatabase(name string) error
	DropCandidate(name string) error
	EvolveStatus(name string) (fleet.EvolveStatus, error)
}

// Worker periodically evolves one database cohort.
type Worker struct {
	// Registry is the fleet being served; Database names the cohort.
	Registry Registry
	Database string
	// Proposer re-runs the search. Its determinism contract is what
	// makes the whole loop reproducible.
	Proposer *Proposer
	// Threshold is the shadow-window agreement fraction at or above
	// which a candidate is cut over (0 selects 0.95).
	Threshold float64
	// MinShadow is how many dual-served events the shadow window must
	// accumulate before the candidate is judged (0 selects 256).
	MinShadow uint64
	// Loop drives Step: Interval, Logger, and the cluster hooks —
	// Agreement gates cutover on every alive peer being active on the
	// same version (cluster.Node.VersionsAgree), Reconcile adopts a
	// peer's database that is ahead (cluster.Node.CatchUpVersions).
	fleet.Loop
}

func (w *Worker) threshold() float64 {
	if w.Threshold <= 0 {
		return 0.95
	}
	return w.Threshold
}

func (w *Worker) minShadow() uint64 {
	if w.MinShadow == 0 {
		return 256
	}
	return w.MinShadow
}

// Step attempts one state-machine transition for the cohort and
// reports what it did. Expected non-transitions (not enough evidence,
// search converged onto the active set, shadow window still filling,
// cluster not yet in agreement) return a nil error.
func (w *Worker) Step(ctx context.Context) error {
	if w.Reconciled(ctx, "evolve", w.Database) {
		return nil
	}
	st, err := w.Registry.EvolveStatus(w.Database)
	if err != nil {
		return err
	}
	if !st.HasCandidate {
		return w.propose(ctx)
	}
	if st.ShadowEvents < w.minShadow() {
		return nil // window still filling
	}
	if st.Agreement < w.threshold() {
		w.Log().InfoContext(ctx, "evolve: candidate rejected by shadow window",
			"db", w.Database, "candidate_version", st.CandidateVersion,
			"agreement", st.Agreement, "threshold", w.threshold(),
			"shadow_events", st.ShadowEvents, "divergences", st.Divergences)
		return w.Registry.DropCandidate(w.Database)
	}
	if !w.Agreed(ctx, "evolve", w.Database, "candidate_version", st.CandidateVersion) {
		return nil
	}
	if err := w.Registry.CutoverDatabase(w.Database); err != nil {
		return err
	}
	w.Log().InfoContext(ctx, "evolve: cutover",
		"db", w.Database, "version", st.CandidateVersion,
		"agreement", st.Agreement, "shadow_events", st.ShadowEvents)
	return nil
}

// propose folds the cohort's journal and installs the re-search result
// as the candidate.
func (w *Worker) propose(ctx context.Context) error {
	active, err := w.Registry.ActiveDatabase(w.Database)
	if err != nil {
		return err
	}
	entries := w.Registry.DecisionsForDatabase(w.Database, 0)
	cand, err := w.Proposer.Propose(active, entries)
	switch {
	case errors.Is(err, ErrInsufficientEvidence), errors.Is(err, ErrNoChange):
		w.Log().DebugContext(ctx, "evolve: no proposal", "db", w.Database, "reason", err)
		return nil
	case err != nil:
		return err
	}
	if err := w.Registry.ProposeDatabase(w.Database, cand); err != nil {
		// A concurrent cutover can outdate the proposal between the
		// search and the install; the next tick re-proposes against the
		// new active version.
		if errors.Is(err, fleet.ErrCandidateVersion) {
			w.Log().InfoContext(ctx, "evolve: proposal outdated by concurrent cutover", "db", w.Database)
			return nil
		}
		return err
	}
	w.Log().InfoContext(ctx, "evolve: candidate proposed",
		"db", w.Database, "version", cand.Version, "points", cand.Len(),
		"active_points", active.Len())
	return nil
}

// Run steps the worker every Interval until ctx is cancelled.
func (w *Worker) Run(ctx context.Context) { w.Loop.Run(ctx, "evolve", w.Database, w.Step) }
