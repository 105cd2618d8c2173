package fleet

// Cohort value-table serving support: versioned shared value functions
// with atomic per-cohort hot swap, in the same slot (slot.go) that
// holds the cohort's database.
//
// Each database cohort owns at most one active value table — the
// cohort-AuRA aggregate published by the cohort worker
// (internal/cohort) — in its dbState's vt slot. The decide path only
// ever loads it: publishing, adopting a peer's table and rolling back
// are pointer flips under swapMu that never block traffic. Devices converge lazily, exactly like database
// versions: every decision (already holding the device semaphore)
// compares the table last applied to its manager with the cohort's
// active slot and re-seeds its agent when they differ, so a publish is
// atomic at the cohort level and per-device consistent (the prior
// lands between two decisions, never inside one).
//
// A table is pinned to the database content it was learned against
// (DBFingerprint): it is never applied across a database swap, and a
// publish whose binding does not match the active database is refused
// outright (ErrValueTableSkew). Journal entries stamp the version of
// the table their device's agent was last seeded from (0: never
// seeded), so any decision stream can be attributed to the value
// knowledge that produced it and a one-step rollback is observable in
// the flight record.

import (
	"errors"
	"fmt"

	"clrdse/internal/runtime"
)

// Cohort value-table errors, distinguished so the HTTP layer and the
// cohort worker can map them onto statuses and retry policy.
var (
	// ErrNoValueTable reports a cohort that has never had a table
	// published.
	ErrNoValueTable = errors.New("fleet: no value table published")
	// ErrValueTableVersion reports a publish whose version does not
	// advance the active table's version.
	ErrValueTableVersion = errors.New("fleet: value table version must advance the active version")
	// ErrValueTableSkew reports a table whose database binding
	// (version, content fingerprint, state count) does not match the
	// cohort's active database — its state indices would be
	// meaningless.
	ErrValueTableSkew = errors.New("fleet: value table does not match the active database")
	// ErrNoPreviousTable reports a rollback without a retained previous
	// table (rollback is one-step: it cannot be repeated).
	ErrNoPreviousTable = errors.New("fleet: no previous value table to roll back to")
)

// ValueTableStatus is one cohort's value-table snapshot — the body of
// /debug/cohort and the cohort worker's decision input.
type ValueTableStatus struct {
	Database string `json:"database"`
	// Table fields are meaningful only when HasTable.
	HasTable bool   `json:"has_table"`
	Version  uint64 `json:"version,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	// Fingerprint is the active table's content hash (version
	// excluded) — what the cluster layer compares, alongside the
	// version number, to decide whether two nodes hold the same
	// learned values.
	Fingerprint    uint64  `json:"fingerprint,omitempty"`
	Gamma          float64 `json:"gamma,omitempty"`
	DBVersion      uint64  `json:"db_version,omitempty"`
	DBFingerprint  uint64  `json:"db_fingerprint,omitempty"`
	QoSFingerprint uint64  `json:"qos_fingerprint,omitempty"`
	Devices        int     `json:"devices,omitempty"`
	Events         int     `json:"events,omitempty"`
	// Previous fields are meaningful only when HasPrevious.
	HasPrevious     bool   `json:"has_previous"`
	PreviousVersion uint64 `json:"previous_version,omitempty"`
	// PriorsApplied counts how many times a device agent on this node
	// was seeded from a cohort table (registrations and live
	// re-seeds).
	PriorsApplied uint64 `json:"priors_applied"`
}

// tableStamp is a value table's position in the cluster convergence
// order.
func tableStamp(t *runtime.ValueTable) Stamp { return Stamp{t.Version, t.Fingerprint()} }

// checkTable verifies, under swapMu, that the table is internally
// consistent and was learned against exactly the database this cohort
// is serving.
func (st *dbState) checkTable(op string, t *runtime.ValueTable) error {
	if t == nil {
		return fmt.Errorf("fleet: %s value table %q: nil table", op, st.name)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("fleet: %s value table %q: %w", op, st.name, err)
	}
	active := st.db.load()
	if t.DBVersion != active.DB.Version || t.DBFingerprint != active.fp || t.Len() != active.DB.Len() {
		return fmt.Errorf("fleet: %s value table %q: %w: table bound to db v%d fp %016x with %d states, active v%d fp %016x with %d",
			op, st.name, ErrValueTableSkew, t.DBVersion, t.DBFingerprint, t.Len(), active.DB.Version, active.fp, active.DB.Len())
	}
	return nil
}

// PublishValueTable installs t as the named cohort's active value
// table, retaining the displaced table for one-step rollback. The
// table must validate, be bound to the active database, and its
// Version must advance the active table's version (the first publish
// must be version 1 or later). Devices pick the new table up lazily on
// their next decision.
func (r *Registry) PublishValueTable(name string, t *runtime.ValueTable) error {
	st, err := r.locked(name)
	if err != nil {
		return err
	}
	defer st.swapMu.Unlock()
	if err := st.checkTable("publish", t); err != nil {
		return err
	}
	var curVer uint64
	if cur := st.vt.load(); cur != nil {
		curVer = cur.Version
	}
	if t.Version <= curVer {
		return fmt.Errorf("%w: publish v%d vs active v%d", ErrValueTableVersion, t.Version, curVer)
	}
	st.vt.install(t)
	r.cohortPublishes.Inc()
	return nil
}

// AdoptValueTable installs a cluster peer's value table immediately —
// the catch-up path, mirroring AdoptDatabase. The adopted table must
// still bind to this node's active database and beat the active table
// in the Stamp order: a strictly higher version wins, and the higher
// fingerprint breaks a same-version tie between tables that
// independently evolved on different nodes. Adopting the exact active
// table is an idempotent no-op; a losing table is refused with
// ErrValueTableVersion. The displaced table is retained for one-step
// rollback.
func (r *Registry) AdoptValueTable(name string, t *runtime.ValueTable) error {
	st, err := r.locked(name)
	if err != nil {
		return err
	}
	defer st.swapMu.Unlock()
	if err := st.checkTable("adopt", t); err != nil {
		return err
	}
	if adopted, err := st.vt.adopt(t, ErrValueTableVersion); !adopted {
		return err
	}
	r.cohortAdoptions.Inc()
	return nil
}

// RollbackValueTable reverts the cohort to the table displaced by the
// last publish or adoption. Rollback is one-step — the reverted-from
// table is not retained. Rolling back past the first publish leaves
// the cohort with no table; devices keep the values already applied to
// their agents (un-learning is not a thing) but new registrations boot
// without a cohort prior, and journal entries keep stamping the
// version each device actually carries.
func (r *Registry) RollbackValueTable(name string) error {
	st, err := r.locked(name)
	if err != nil {
		return err
	}
	defer st.swapMu.Unlock()
	cur := st.vt.load()
	if cur == nil {
		return fmt.Errorf("%w: %q", ErrNoValueTable, name)
	}
	// Without a retained table only the first publish rolls back (to
	// "no table").
	if st.vt.prev == nil && cur.Version > 1 {
		return fmt.Errorf("%w: %q", ErrNoPreviousTable, name)
	}
	st.vt.rollback()
	r.cohortRollbacks.Inc()
	return nil
}

// ValueTable returns the cohort's active value table, nil when none
// has been published — the read side of the cluster catch-up path and
// of /debug/cohort.
func (r *Registry) ValueTable(name string) (*runtime.ValueTable, error) {
	st, err := r.cohort(name)
	if err != nil {
		return nil, err
	}
	return st.vt.load(), nil
}

// ValueTableStatus snapshots one cohort's value-table state.
func (r *Registry) ValueTableStatus(name string) (ValueTableStatus, error) {
	st, err := r.cohort(name)
	if err != nil {
		return ValueTableStatus{}, err
	}
	return st.vtStatus(r), nil
}

// ValueTableStatuses snapshots every cohort, in registration order.
func (r *Registry) ValueTableStatuses() []ValueTableStatus {
	return eachCohort(r, func(st *dbState) ValueTableStatus { return st.vtStatus(r) })
}

func (st *dbState) vtStatus(r *Registry) ValueTableStatus {
	st.swapMu.Lock()
	active := st.vt.load()
	prev := st.vt.prev
	st.swapMu.Unlock()
	s := ValueTableStatus{
		Database:      st.name,
		PriorsApplied: uint64(r.cohortPriors.Value()),
	}
	if active != nil {
		s.HasTable = true
		s.Version = active.Version
		s.Epoch = active.Epoch
		s.Fingerprint = active.Fingerprint()
		s.Gamma = active.Gamma
		s.DBVersion = active.DBVersion
		s.DBFingerprint = active.DBFingerprint
		s.QoSFingerprint = active.QoSFingerprint
		s.Devices = active.Devices
		s.Events = active.Events
	}
	if prev != nil {
		s.HasPrevious = true
		s.PreviousVersion = prev.Version
	}
	return s
}

// syncValueTable converges the device's agent onto its cohort's active
// value table. The caller holds the device semaphore, so the prior
// lands between decisions, never inside one. It never fails the
// decision: a table that does not apply (uRA device, gamma mismatch,
// learned against other database content) leaves the device as is,
// with its journal stamp truthful.
func (r *Registry) syncValueTable(d *device) {
	mgr := d.mgr.Load()
	if d.vtMgr != mgr {
		// The manager was swapped (version migration, rollback,
		// handoff) since the last prior application: its agent no
		// longer carries the table's values, so the stamp resets until
		// a matching table is re-applied.
		d.vtMgr, d.vtApplied = nil, nil
		d.vtVersion.Store(0)
	}
	vt := d.state.vt.load()
	if vt == nil || vt == d.vtApplied {
		return
	}
	if vt.DBFingerprint != d.db.Load().fp {
		return // learned against other database content; never cross
	}
	applied, err := mgr.ApplyValuePrior(vt)
	if err != nil || !applied {
		return // uRA device or gamma mismatch: expected in mixed fleets
	}
	d.vtMgr, d.vtApplied = mgr, vt
	d.vtVersion.Store(vt.Version)
	r.cohortPriors.Inc()
}
