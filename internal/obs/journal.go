package obs

import (
	"encoding/json"
	"os"
	"sync/atomic"
)

// Entry is one explained decision: everything needed to reconstruct
// after the fact which point was chosen and why. The wire shape is
// flat snake_case JSON, same as the v1 API.
type Entry struct {
	// TraceID correlates the entry with the request's log lines.
	TraceID TraceID `json:"trace_id"`
	// Device and Seq identify the QoS event ((device, seq) is unique
	// per real decision; degraded answers may repeat a seq).
	Device string `json:"device"`
	Seq    uint64 `json:"seq"`
	// UnixNanos is the decision instant on the journal's clock.
	UnixNanos int64 `json:"unix_nanos"`
	// From is the seed point (the configuration in force before the
	// decision); To is the chosen point.
	From int `json:"from"`
	To   int `json:"to"`
	// Reconfigured, Violated, Degraded mirror the decision outcome.
	Reconfigured bool `json:"reconfigured"`
	Violated     bool `json:"violated"`
	Degraded     bool `json:"degraded"`
	// Candidates is the feasible-point count the scorer saw;
	// Infeasible is how many stored points the filter rejected.
	Candidates int `json:"candidates"`
	Infeasible int `json:"infeasible"`
	// Score is the chosen point's selection score (RET for the RET
	// policy, swept area for hypervolume; 0 when no scoring ran).
	Score float64 `json:"score"`
	// DRCMs is the transition's total reconfiguration cost.
	DRCMs float64 `json:"drc_ms"`
	// DBVersion is the design-point database version the decision was
	// scored against (0 for the design-time original). Point IDs in
	// From/To are only meaningful relative to this version.
	DBVersion uint64 `json:"db_version,omitempty"`
	// SpecSMaxMs and SpecFMin record the QoS specification the event
	// carried — the observed (S_SPEC, F_SPEC) sample the Continuous-ReD
	// worker folds into its empirical event distribution.
	SpecSMaxMs float64 `json:"spec_s_max_ms,omitempty"`
	SpecFMin   float64 `json:"spec_f_min,omitempty"`
	// VTVersion is the cohort value-table version the device's agent
	// was last seeded from when this decision was scored (0: never
	// seeded — per-device learning only, or uRA with no agent at all).
	VTVersion uint64 `json:"vt_version,omitempty"`
	// Stages are the decide path's per-stage latencies.
	Stages []Span `json:"stages,omitempty"`
}

// DefaultJournalCap is the per-shard ring capacity when the caller
// does not choose one: large enough that a soak's full decision
// history fits, small enough to be negligible memory per shard.
const DefaultJournalCap = 4096

// Journal is a fixed-capacity decision ring with lock-free reads and
// writes: an appender claims a slot with one atomic add and publishes
// an immutable *Entry with one atomic store; readers only load. When
// the ring wraps, the oldest entries are overwritten — the journal is
// a flight recorder, not a durable log. A Snapshot taken while
// writers are active sees each slot atomically (never a torn entry)
// but may straddle a wrap; quiesced, it is exactly the last
// min(Total, Cap) entries in append order.
type Journal struct {
	slots []atomic.Pointer[Entry]
	next  atomic.Uint64
}

// NewJournal builds a journal with the given capacity (<= 0 selects
// DefaultJournalCap).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{slots: make([]atomic.Pointer[Entry], capacity)}
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int { return len(j.slots) }

// Total returns how many entries were ever appended (not how many
// are retained; retained is min(Total, Cap)).
func (j *Journal) Total() uint64 { return j.next.Load() }

// Append publishes the entry. The journal owns e from here on; the
// caller must not mutate it afterwards.
func (j *Journal) Append(e *Entry) {
	n := j.next.Add(1) - 1
	j.slots[n%uint64(len(j.slots))].Store(e)
}

// Snapshot copies the retained entries, oldest first. It never
// blocks writers.
func (j *Journal) Snapshot() []Entry {
	total := j.next.Load()
	n := total
	if n > uint64(len(j.slots)) {
		n = uint64(len(j.slots))
	}
	out := make([]Entry, 0, n)
	start := total - n
	for i := uint64(0); i < n; i++ {
		if e := j.slots[(start+i)%uint64(len(j.slots))].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// WriteJournal writes entries to path as indented JSON: the decision
// journal artifact the soaks leave behind for offline triage.
func WriteJournal(path string, entries []Entry) error {
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
