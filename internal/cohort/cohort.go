// Package cohort implements fleet-scale shared value learning: the
// cohort-AuRA counterpart of the per-device agent of Section 4.3.2.
// Devices that serve the same design-point database under the same
// observed QoS regime form a cohort; the cohort's journaled decisions
// are folded into one aggregated value table (VR, VD per stored design
// point), published on a deterministic epoch schedule, and injected
// back into the devices' agents as prior knowledge. A cold-start
// device then inherits what its cohort already learned instead of
// running offline Monte-Carlo from scratch.
//
// Everything here is deterministic: a cohort key, an epoch boundary
// and an aggregated table are pure functions of (database, journal
// entries, configuration, seed). Aggregation replays journaled
// decisions in sorted (device, seq) order through detached
// runtime.Agent instances and merges them with visit-weighted means in
// sorted device order, so the result is independent of journal shard
// interleaving and map iteration order — the same discipline that
// makes internal/evolve's proposals byte-reproducible.
package cohort

import (
	"encoding/binary"
	"hash/fnv"

	"clrdse/internal/evolve"
	"clrdse/internal/obs"
)

// Key identifies a cohort: the devices that share learned value
// knowledge. Two devices are cohort-mates when they serve databases
// with identical content (same fingerprint — version numbers alone can
// collide across divergent nodes) and observe the same quantised
// QoS-event regime.
type Key struct {
	// DBFingerprint is the content fingerprint of the serving database
	// (fleet.NamedDatabase.Fingerprint).
	DBFingerprint uint64 `json:"db_fingerprint"`
	// QoSFingerprint is the quantised support-set fingerprint of the
	// observed QoS-event distribution (see QoSFingerprint).
	QoSFingerprint uint64 `json:"qos_fingerprint"`
}

// QoSFingerprint hashes the *support set* of the observed QoS-event
// distribution: the sorted distinct quantised (S_SPEC, F_MIN) cells,
// on exactly the grid internal/evolve histograms them (one quantiser,
// one notion of "same specification"). Counts are deliberately
// excluded — the fingerprint identifies the regime a cohort operates
// in, and must stay stable as traffic accumulates within that regime
// rather than change with every journaled event. Degraded answers and
// pre-spec-recording entries (both spec fields zero) are skipped, as
// in evolve.Observe; the result is independent of entry order.
func QoSFingerprint(entries []obs.Entry) uint64 {
	// Observe's buckets are exactly the sorted distinct cells.
	cells := evolve.Observe(entries).Buckets
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(cells)))
	for _, c := range cells {
		word(uint64(evolve.Quantise(c.SMaxMs)))
		word(uint64(evolve.Quantise(c.FMin)))
	}
	return h.Sum64()
}
