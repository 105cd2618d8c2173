package fleet

// The replicated-artifact core. A cohort serves two artifacts that a
// cluster replicates: its database (Continuous ReD, evolve.go) and its
// shared value table (cohort AuRA, cohort.go). Both are ordered by one
// Stamp and held in one kind of slot, so install, one-step rollback and
// idempotent adoption of a peer's artifact behave identically for both.

import (
	"fmt"
	"sync/atomic"

	"clrdse/internal/fleet/metrics"
)

// Stamp identifies one version of a replicated artifact: its version
// number and its content fingerprint (the version excluded).
type Stamp struct {
	Version     uint64
	Fingerprint uint64
}

// Beats reports whether s wins over o in the cluster's convergence
// order: the higher version wins, and between divergent artifacts
// sharing a version number the larger fingerprint wins. Any total
// order works as long as every node uses the same one, so that all
// nodes chase the same winner.
func (s Stamp) Beats(o Stamp) bool {
	if s.Version != o.Version {
		return s.Version > o.Version
	}
	return s.Fingerprint > o.Fingerprint
}

// String renders the stamp for logs and errors.
func (s Stamp) String() string { return fmt.Sprintf("v%d fp %016x", s.Version, s.Fingerprint) }

// slot is one cohort's active/previous pair for one artifact kind. The
// decide path loads active without locks; prev and every mutation are
// guarded by the owning dbState's swapMu.
type slot[T any] struct {
	// active is the served artifact (nil only for a table slot before
	// the first publish).
	active atomic.Pointer[T]
	// prev is the one-step rollback target.
	prev *T
	// stamp orders artifacts; gauge mirrors the active version (0 when
	// empty).
	stamp func(*T) Stamp
	gauge *metrics.Gauge
}

// init sets the slot's order and version gauge.
func (s *slot[T]) init(stamp func(*T) Stamp, gauge *metrics.Gauge) { s.stamp, s.gauge = stamp, gauge }

// load returns the active artifact: one atomic load, safe on the decide
// path.
func (s *slot[T]) load() *T { return s.active.Load() }

// set makes v active without touching prev.
func (s *slot[T]) set(v *T) {
	s.active.Store(v)
	var ver uint64
	if v != nil {
		ver = s.stamp(v).Version
	}
	s.gauge.Set(int64(ver))
}

// install makes next active and retains the displaced artifact for
// rollback.
func (s *slot[T]) install(next *T) {
	s.prev = s.load()
	s.set(next)
}

// adopt installs a peer's artifact unless the active one carries the
// same stamp (an idempotent no-op, reported as false) or beats it
// (refused with an error wrapping lose).
func (s *slot[T]) adopt(next *T, lose error) (bool, error) {
	if cur := s.load(); cur != nil {
		have, got := s.stamp(cur), s.stamp(next)
		if got == have {
			return false, nil
		}
		if !got.Beats(have) {
			return false, fmt.Errorf("%w: adopt %v loses to active %v", lose, got, have)
		}
	}
	s.install(next)
	return true, nil
}

// rollback reinstates the retained artifact (nil included) and forgets
// it: rollback is one step and cannot be repeated.
func (s *slot[T]) rollback() {
	s.set(s.prev)
	s.prev = nil
}
