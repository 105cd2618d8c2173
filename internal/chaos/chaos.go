// Package chaos is a deterministic fault-injection layer for the
// fleet decision service. The paper's premise is that reliability must
// be designed in across layers; chaos closes the loop on our own
// serving stack by making the faults the fleet layer is supposed to
// mask — dropped requests, latency spikes, truncated or malformed
// JSON bodies, stalled per-device decision paths, corrupted database
// entries — injectable, seeded and reproducible.
//
// Fault decisions are a pure function of (seed, scope, key, ordinal):
// every injection point derives its verdict from the configured seed,
// the injection scope (transport, server, decide), a stable key (the
// request path or device ID) and a per-key ordinal that counts
// operations on that key. Two runs with the same seed and the same
// per-key operation order therefore inject the identical fault
// schedule, which is what lets the soak test assert that retry-masked
// faults leave decisions byte-identical to a fault-free run.
package chaos

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"clrdse/internal/rng"
)

// Kind enumerates the injectable fault classes across the stack's
// layers: the client transport, the server's HTTP front, and the
// per-device decision path.
type Kind int

const (
	// None means the operation proceeds unfaulted.
	None Kind = iota
	// DropRequest fails a client request before it is sent; the
	// server never sees it, so a retry is always safe.
	DropRequest
	// Latency delays a client request before it is sent.
	Latency
	// DropResponse sends the request, then discards the response —
	// the server has processed the event, so only sequence-number
	// deduplication makes the retry safe.
	DropResponse
	// TruncateResponse cuts the response body in half, yielding an
	// undecodable JSON document.
	TruncateResponse
	// MangleResponse overwrites the response body's first byte,
	// yielding a malformed JSON document.
	MangleResponse
	// Reject answers a request with 503 before the handler runs.
	Reject
	// ServerLatency delays a request server-side before the handler.
	ServerLatency
	// Stall sleeps inside the device's decision path while holding
	// the device lock (a wedged manager); when the sleep outlives the
	// decision deadline the server degrades to last known-good.
	Stall
	// Corrupt simulates reading a corrupted stored database entry in
	// the decision path; the server degrades to last known-good.
	Corrupt
	numKinds int = iota
)

var kindNames = [...]string{"none", "drop-request", "latency", "drop-response",
	"truncate-response", "mangle-response", "reject", "server-latency", "stall", "corrupt"}

// String names the fault kind for logs and reports.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Scope identifies the layer an injection point lives in; each scope
// samples only its own fault kinds, with its own ordinal space.
type Scope int

const (
	// ScopeTransport faults client-side HTTP round trips.
	ScopeTransport Scope = iota
	// ScopeServer faults the server's HTTP front.
	ScopeServer
	// ScopeDecide faults the per-device decision path.
	ScopeDecide
)

var scopeNames = [...]string{"transport", "server", "decide"}

func (s Scope) String() string {
	if s < 0 || int(s) >= len(scopeNames) {
		return "unknown"
	}
	return scopeNames[s]
}

// ErrCorruptEntry is the decision-path error simulating a corrupted
// stored database entry.
var ErrCorruptEntry = errors.New("chaos: corrupted database entry")

// Fault is one sampled injection verdict.
type Fault struct {
	// Kind selects the failure; None means proceed.
	Kind Kind
	// Delay is the injected delay for Latency, ServerLatency and
	// Stall faults.
	Delay time.Duration
}

// Config sets the per-kind injection probabilities. Within one scope
// the probabilities must sum to at most 1 (at most one fault per
// operation); a zero Config injects nothing.
type Config struct {
	// Seed drives every fault decision; equal seeds reproduce the
	// identical schedule.
	Seed int64

	// Transport-scope probabilities.
	PDropRequest, PLatency, PDropResponse float64
	PTruncateResponse, PMangleResponse    float64
	// LatencyMin/Max bound injected transport and server delays.
	LatencyMin, LatencyMax time.Duration

	// Server-scope probabilities.
	PReject, PServerLatency float64

	// Decide-scope probabilities.
	PStall, PCorrupt float64
	// StallMin/Max bound the injected decision-path stall.
	StallMin, StallMax time.Duration
}

// Injector samples faults deterministically and counts what it
// injected. It is safe for concurrent use.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	ordinals map[string]uint64

	counts [numKinds]atomic.Uint64
}

// New returns an injector for the configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, ordinals: make(map[string]uint64)}
}

// Sample draws the fault verdict for the next operation on (scope,
// key), advancing the key's ordinal. The verdict for ordinal n is a
// pure function of (seed, scope, key, n).
func (in *Injector) Sample(scope Scope, key string) Fault {
	full := scope.String() + "|" + key
	in.mu.Lock()
	n := in.ordinals[full]
	in.ordinals[full] = n + 1
	in.mu.Unlock()
	f := in.FaultAt(scope, key, n)
	in.counts[f.Kind].Add(1)
	return f
}

// FaultAt returns the verdict for the n-th operation on (scope, key)
// without advancing any state.
func (in *Injector) FaultAt(scope Scope, key string, n uint64) Fault {
	h := fnv.New64a()
	h.Write([]byte(scope.String()))
	h.Write([]byte{'|'})
	h.Write([]byte(key))
	src := rng.New(in.cfg.Seed ^ int64(h.Sum64()>>1)).Split(int64(n))
	u := src.Float64()

	pick := func(kinds []Kind, probs []float64) Kind {
		for i, p := range probs {
			if u < p {
				return kinds[i]
			}
			u -= p
		}
		return None
	}
	var k Kind
	switch scope {
	case ScopeTransport:
		k = pick(
			[]Kind{DropRequest, Latency, DropResponse, TruncateResponse, MangleResponse},
			[]float64{in.cfg.PDropRequest, in.cfg.PLatency, in.cfg.PDropResponse,
				in.cfg.PTruncateResponse, in.cfg.PMangleResponse})
	case ScopeServer:
		k = pick([]Kind{Reject, ServerLatency}, []float64{in.cfg.PReject, in.cfg.PServerLatency})
	case ScopeDecide:
		k = pick([]Kind{Stall, Corrupt}, []float64{in.cfg.PStall, in.cfg.PCorrupt})
	}
	f := Fault{Kind: k}
	switch k {
	case Latency, ServerLatency:
		f.Delay = sampleDelay(src, in.cfg.LatencyMin, in.cfg.LatencyMax)
	case Stall:
		f.Delay = sampleDelay(src, in.cfg.StallMin, in.cfg.StallMax)
	}
	return f
}

func sampleDelay(src *rng.Source, min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(src.Range(0, float64(max-min)))
}

// Count reports how many faults of the kind have been injected.
func (in *Injector) Count(k Kind) uint64 { return in.counts[k].Load() }

// Injected reports the total number of non-None faults injected.
func (in *Injector) Injected() uint64 {
	var total uint64
	for k := 1; k < numKinds; k++ {
		total += in.counts[k].Load()
	}
	return total
}
