package fleettest

// The soak harness. Every soak — the chaos soak (TestChaosSoak,
// clrchaos) and the membership soak (TestClusterSoak, clrchaos
// -cluster) — boots a Cluster, drives it with SoakPass and judges the
// evidence with CheckSoak. A chaos soak is one node with an injector
// (ClusterOptions.Injector); a membership soak is N nodes with a
// seeded kill/restart schedule (SoakSchedule); the reference pass of
// either is one node, no injector, no schedule. Precomputed scripts,
// membership changes only at barriers and per-key fault streams make a
// pass deterministic, so its answers compare byte for byte with the
// reference's.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/obs"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
)

// maxSubmissions bounds how often SoakPass submits one event before
// it gives up on the pass.
const maxSubmissions = 64

// SoakEvent is one membership change applied before a round.
type SoakEvent struct {
	Round   int
	Node    int
	Restart bool
}

// SoakSchedule derives the kill/restart plan from the seed: two
// kill-then-restart disruptions at seeded rounds against seeded nodes,
// never node 0, so a client's first ring fetch keeps a stable target.
// Short schedules are clamped: draws never go below one round, and
// events past the last round are dropped. Fewer than two nodes leave
// nothing to attack: the plan is empty. A pure function of (seed,
// rounds, nodes).
func SoakSchedule(seed int64, rounds, nodes int) []SoakEvent {
	if nodes < 2 {
		return nil
	}
	src := rng.New(seed)
	quarter := max(rounds/4, 1)
	k1 := 1 + src.Intn(nodes-1)
	r1 := 1 + src.Intn(quarter)
	r1back := r1 + 2 + src.Intn(quarter)
	k2 := 1 + src.Intn(nodes-1)
	r2 := r1back + 1 + src.Intn(quarter)
	r2back := r2 + 1 + src.Intn(max(rounds-r2-1, 1))
	evs := []SoakEvent{{Round: r1, Node: k1}}
	if r1back < rounds {
		evs = append(evs, SoakEvent{Round: r1back, Node: k1, Restart: true})
	}
	if r1back < rounds && r2 < rounds {
		evs = append(evs, SoakEvent{Round: r2, Node: k2})
		if r2back < rounds {
			evs = append(evs, SoakEvent{Round: r2back, Node: k2, Restart: true})
		}
	}
	return evs
}

// SplitScripts derives every device's script from one root seed,
// device d drawing from rng.New(seed).Split(d): the chaos soaks'
// event streams.
func SplitScripts(db *dse.Database, seed int64, devices, events int) [][]runtime.QoSSpec {
	root := rng.New(seed)
	out := make([][]runtime.QoSSpec, devices)
	for d := range out {
		out[d] = draw(db, root.Split(int64(d)), events)
	}
	return out
}

// SoakDeviceID names soak device d.
func SoakDeviceID(d int) string { return fmt.Sprintf("soak-%d", d) }

// SoakClient is the slice of the resilient client (fleet/client) a
// soak drives. A soak's client must never open its breakers: injected
// 503s and node kills are deliberate, and an eager breaker would only
// add rejection noise and delay the re-resolution under test.
type SoakClient interface {
	RefreshRing(ctx context.Context) error
	Register(ctx context.Context, req fleet.RegisterRequest) (*fleet.DeviceJSON, error)
	QoS(ctx context.Context, id string, seq uint64, spec fleet.QoSSpecJSON) (*fleet.DecisionJSON, error)
}

// RegisterSoakFleet registers the soak devices on db, booting at its
// loose specification. gamma selects the agent: 0 registers uRA
// devices (the chaos soaks); the membership soaks use AuRA at 0.9, so
// a migration's journal replay must rebuild learned state too.
func RegisterSoakFleet(ctx context.Context, c SoakClient, db fleet.NamedDatabase, devices int, gamma float64) error {
	boot := LooseSpec(db.DB)
	for d := 0; d < devices; d++ {
		_, err := c.Register(ctx, fleet.RegisterRequest{
			ID:       SoakDeviceID(d),
			Database: db.Name,
			PRC:      0.5,
			Gamma:    gamma,
			Trigger:  "on-violation",
			Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
		})
		if err != nil {
			return fmt.Errorf("fleettest: register %s: %w", SoakDeviceID(d), err)
		}
	}
	return nil
}

// SoakResult is a pass's evidence, as CheckSoak judges it.
type SoakResult struct {
	// Decisions is the canonical JSON of every accepted answer,
	// [device][event] ("" when the event was never answered).
	Decisions [][]string
	// Devices maps each live node to the devices it holds and their
	// decision counts.
	Devices map[string]map[string]int64
	// Journal is the union of the live nodes' decision journals.
	Journal []obs.Entry
	// Resubmits counts the submissions beyond each event's first, made
	// after a failed call or a degraded answer.
	Resubmits int
	// Faults is the cluster injector's fault count (0 without one).
	Faults uint64
}

// RunSoak boots a cluster under opt, registers the soak fleet (see
// RegisterSoakFleet) through the client newClient builds for the
// cluster's URLs — ring-aware once it fetched the ring of a multi-node
// cluster — drives one SoakPass and shuts the cluster down.
func RunSoak(ctx context.Context, opt ClusterOptions, newClient func(urls []string) SoakClient, gamma float64, scripts [][]runtime.QoSSpec, schedule []SoakEvent) (SoakResult, error) {
	clus, err := NewCluster(opt)
	if err != nil {
		return SoakResult{}, err
	}
	defer clus.Close()
	cl := newClient(clus.URLs())
	if len(clus.Nodes) > 1 {
		if err := cl.RefreshRing(ctx); err != nil {
			return SoakResult{}, err
		}
	}
	if err := RegisterSoakFleet(ctx, cl, clus.opt.Databases[0], len(scripts), gamma); err != nil {
		return SoakResult{}, err
	}
	return clus.SoakPass(ctx, cl, scripts, schedule)
}

// SoakPass drives every device through its script concurrently, event
// i carrying seq i+1, and collects the pass's evidence. A barrier
// stops the devices only before a round the schedule changes
// membership at; with no schedule the pass runs free. An event is
// re-submitted with its seq until it gets a non-degraded answer;
// after maxSubmissions the pass fails.
func (c *Cluster) SoakPass(ctx context.Context, cl SoakClient, scripts [][]runtime.QoSSpec, schedule []SoakEvent) (SoakResult, error) {
	var rounds int
	res := SoakResult{Decisions: make([][]string, len(scripts))}
	for d, script := range scripts {
		rounds = len(script)
		res.Decisions[d] = make([]string, rounds)
	}
	var resubmits atomic.Int64
	for start := 0; start < rounds; {
		end := rounds
		for _, ev := range schedule {
			switch {
			case ev.Round == start:
				op, verb := c.Kill, "kill"
				if ev.Restart {
					op, verb = c.Restart, "restart"
				}
				if err := op(ctx, ev.Node); err != nil {
					return res, fmt.Errorf("round %d: %s node %d: %w", start, verb, ev.Node, err)
				}
			case ev.Round > start && ev.Round < end:
				end = ev.Round
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(scripts))
		for d, script := range scripts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := start; r < end && errs[d] == nil; r++ {
					n, err := submit(ctx, cl, d, r, script[r], &res.Decisions[d][r])
					resubmits.Add(int64(n))
					errs[d] = err
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return res, err
		}
		start = end
	}
	res.Resubmits = int(resubmits.Load())
	if c.opt.Injector != nil {
		res.Faults = c.opt.Injector.Injected()
	}
	res.Devices = make(map[string]map[string]int64)
	for i, cn := range c.Nodes {
		if !c.Alive(i) {
			continue
		}
		reg := cn.Srv.Registry()
		held := make(map[string]int64)
		for _, id := range reg.DeviceIDs() {
			if info, err := reg.Get(id); err == nil {
				held[id] = info.Stats.Decisions
			}
		}
		res.Devices[cn.ID] = held
	}
	res.Journal = c.Journal()
	return res, nil
}

// submit sends device d's event r until a non-degraded answer lands,
// storing its canonical JSON in out, and returns how often it
// re-submitted.
func submit(ctx context.Context, cl SoakClient, d, r int, spec runtime.QoSSpec, out *string) (int, error) {
	wire := fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin}
	var err error
	for n := range maxSubmissions {
		var dec *fleet.DecisionJSON
		if dec, err = cl.QoS(ctx, SoakDeviceID(d), uint64(r+1), wire); err == nil && !dec.Degraded {
			b, err := json.Marshal(dec)
			*out = string(b)
			return n, err
		}
	}
	return maxSubmissions - 1, fmt.Errorf("device %d event %d: no non-degraded answer after %d submissions (last error: %v)",
		d, r+1, maxSubmissions, err)
}

// CheckSoak judges pass got against its reference ref (the same
// scripts on one node, no injector, no schedule) and returns every
// violated invariant, one message each; none means the pass is clean.
// The invariants:
//
//   - every event is answered, byte-identical to the reference;
//   - every device sits on exactly one live node, having decided
//     exactly its events;
//   - after deduplicating the identical copies migration makes, the
//     union journal holds exactly one non-degraded entry per (device,
//     seq) and none beyond the script;
//   - every journal entry carries a valid trace ID;
//   - degraded entries and re-submissions occur only in a pass that
//     injected faults.
//
// CheckSoak(ref, ref) judges a reference pass by itself.
func CheckSoak(ref, got SoakResult) []string {
	var out []string
	report := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	var ids, seqs []string
	for d, want := range ref.Decisions {
		ids = append(ids, SoakDeviceID(d))
		for i, w := range want {
			seqs = append(seqs, fmt.Sprintf("%s seq %d", SoakDeviceID(d), i+1))
			switch g := got.Decisions[d][i]; {
			case g == "":
				report("device %d event %d never answered", d, i+1)
			case g != w:
				report("device %d event %d diverged:\n  reference: %s\n  pass:      %s", d, i+1, w, g)
			}
		}
	}

	owners := make(map[string]int)
	for _, node := range slices.Sorted(maps.Keys(got.Devices)) {
		held := got.Devices[node]
		for _, id := range slices.Sorted(maps.Keys(held)) {
			owners[id]++
			if n, want := held[id], len(ref.Decisions[0]); n != int64(want) {
				report("device %s on %s decided %d of %d events", id, node, n, want)
			}
		}
	}
	exactlyOnce(report, "live nodes holding device", ids, owners)

	unique := make(map[string]bool)
	decided := make(map[string]int)
	degraded := 0
	for _, e := range got.Journal {
		if !e.TraceID.IsValid() {
			report("journal entry %s seq %d carries invalid trace ID %q", e.Device, e.Seq, e.TraceID)
		}
		if e.Degraded {
			degraded++
		} else if k := fmt.Sprint(e); !unique[k] {
			unique[k] = true
			decided[fmt.Sprintf("%s seq %d", e.Device, e.Seq)]++
		}
	}
	exactlyOnce(report, "distinct non-degraded journal entries for", seqs, decided)
	if got.Faults == 0 {
		if degraded > 0 {
			report("fault-free pass journaled %d degraded entries", degraded)
		}
		if got.Resubmits > 0 {
			report("fault-free pass made %d re-submissions", got.Resubmits)
		}
	}
	return out
}

// exactlyOnce reports every scripted key counted other than once and
// every counted key outside the script.
func exactlyOnce(report func(string, ...any), what string, script []string, counts map[string]int) {
	for _, k := range script {
		if counts[k] != 1 {
			report("%s %s: %d, want exactly 1", what, k, counts[k])
		}
		delete(counts, k)
	}
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		report("%s %s: %d, outside the script", what, k, counts[k])
	}
}
