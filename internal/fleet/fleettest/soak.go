package fleettest

// Membership soak driver, shared by the cluster soak test and
// `clrchaos -cluster`: a seeded kill/restart schedule, a fleet of
// scripted devices, and a lockstep pass that applies the schedule at
// round barriers. Lockstep rounds, barrier-only membership changes and
// precomputed scripts make a pass deterministic, so its transcripts
// can be compared byte for byte with a single-node reference pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"clrdse/internal/fleet"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
)

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
// events past the last round are dropped. A pure function of (seed,
// rounds, nodes).
func SoakSchedule(seed int64, rounds, nodes int) []SoakEvent {
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

// SoakDeviceID names soak device d.
func SoakDeviceID(d int) string { return fmt.Sprintf("soak-%d", d) }

// SoakClient is the slice of the resilient client (fleet/client) a
// soak drives. A soak's client must never open its breakers: node kills
// are deliberate, and an eager breaker would only delay the
// re-resolution under test.
type SoakClient interface {
	Register(ctx context.Context, req fleet.RegisterRequest) (*fleet.DeviceJSON, error)
	QoS(ctx context.Context, id string, seq uint64, spec fleet.QoSSpecJSON) (*fleet.DecisionJSON, error)
}

// RegisterSoakFleet registers the soak devices on db: AuRA agents, so
// a migration's journal replay must rebuild learned state too.
func RegisterSoakFleet(ctx context.Context, c SoakClient, db fleet.NamedDatabase, devices int) error {
	boot := LooseSpec(db.DB)
	for d := 0; d < devices; d++ {
		_, err := c.Register(ctx, fleet.RegisterRequest{
			ID:       SoakDeviceID(d),
			Database: db.Name,
			PRC:      0.5,
			Gamma:    0.9,
			Trigger:  "on-violation",
			Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
		})
		if err != nil {
			return fmt.Errorf("fleettest: register %s: %w", SoakDeviceID(d), err)
		}
	}
	return nil
}

// SoakPass drives device d through scripts[d], one event per round,
// applying the membership events scheduled for a round at its barrier.
// It returns the canonical JSON of every decision, [device][round]. A
// failed call and a degraded answer are both errors: a graceful
// failover must stay invisible in the answers.
func (c *Cluster) SoakPass(ctx context.Context, cl SoakClient, scripts [][]runtime.QoSSpec, events []SoakEvent) ([][]string, error) {
	devices, rounds := len(scripts), len(scripts[0])
	out := make([][]string, devices)
	for d := range out {
		out[d] = make([]string, rounds)
	}
	for r := 0; r < rounds; r++ {
		for _, ev := range events {
			if ev.Round != r {
				continue
			}
			op, verb := c.Kill, "kill"
			if ev.Restart {
				op, verb = c.Restart, "restart"
			}
			if err := op(ctx, ev.Node); err != nil {
				return nil, fmt.Errorf("round %d: %s node %d: %w", r, verb, ev.Node, err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, devices)
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				spec := scripts[d][r]
				dec, err := cl.QoS(ctx, SoakDeviceID(d), uint64(r+1),
					fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin})
				if err == nil && dec.Degraded {
					err = fmt.Errorf("degraded answer during graceful failover")
				}
				if err != nil {
					errs[d] = fmt.Errorf("device %d round %d: %w", d, r, err)
					return
				}
				b, err := json.Marshal(dec)
				if err != nil {
					errs[d] = err
					return
				}
				out[d][r] = string(b)
			}(d)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
