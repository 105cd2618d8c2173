package main

// Cluster soak mode (-cluster N): instead of fault-injecting one
// node's transport, this mode runs an N-node in-process cluster and
// attacks membership itself — a seeded schedule of node kills
// (SIGTERM-style drain) and restarts between lockstep event rounds.
// The invariants are the cluster contract:
//
//  1. no device is lost — every device ends registered on exactly one
//     node having decided all its events;
//  2. no sequence is answered twice — the union journal holds, after
//     deduplicating the identical copies migration makes, exactly one
//     decision per (device, seq);
//  3. every decision is byte-identical to a single-node reference run
//     of the same scripts.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/runtime"
)

type clusterSoakParams struct {
	dbs      []fleet.NamedDatabase
	nodes    int
	devices  int
	events   int
	specSeed int64
	killSeed int64
	attempts int
	attemptT time.Duration
}

// runClusterSoak executes reference and cluster passes and checks the
// invariants, reporting every violation.
func runClusterSoak(p clusterSoakParams, report func(format string, args ...any)) error {
	scripts := make([][]runtime.QoSSpec, p.devices)
	for d := range scripts {
		scripts[d] = fleettest.Script(p.dbs[0].DB, p.specSeed+int64(d), p.events)
	}
	ctx := context.Background()
	// boot starts a cluster and registers the fleet through a fresh
	// ring-aware client.
	boot := func(nodes int) (*fleettest.Cluster, *client.Client, error) {
		clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: nodes, Databases: p.dbs})
		if err != nil {
			return nil, nil, err
		}
		c := client.New(client.Config{
			Targets:          clus.URLs(),
			MaxAttempts:      p.attempts,
			AttemptTimeout:   p.attemptT,
			JitterSeed:       p.specSeed,
			BreakerThreshold: 1 << 20, // see fleettest.SoakClient
		})
		if err := c.RefreshRing(ctx); err != nil {
			clus.Close()
			return nil, nil, err
		}
		if err := fleettest.RegisterSoakFleet(ctx, c, p.dbs[0], p.devices); err != nil {
			clus.Close()
			return nil, nil, err
		}
		return clus, c, nil
	}

	ref, refClient, err := boot(1)
	if err != nil {
		return err
	}
	defer ref.Close()
	want, err := ref.SoakPass(ctx, refClient, scripts, nil)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	clus, c, err := boot(p.nodes)
	if err != nil {
		return err
	}
	defer clus.Close()
	schedule := fleettest.SoakSchedule(p.killSeed, p.events, p.nodes)
	fmt.Printf("membership schedule (seed %d):\n", p.killSeed)
	for _, ev := range schedule {
		verb := "kill"
		if ev.Restart {
			verb = "restart"
		}
		fmt.Printf("  round %-3d %s node-%d\n", ev.Round, verb, ev.Node)
	}
	got, err := clus.SoakPass(ctx, c, scripts, schedule)
	if err != nil {
		return fmt.Errorf("cluster pass: %w", err)
	}

	// Invariant 3: byte-identical to the single-node reference.
	for d := 0; d < p.devices; d++ {
		for r := 0; r < p.events; r++ {
			if got[d][r] != want[d][r] {
				report("device %d round %d diverged:\n  cluster: %s\n  single:  %s", d, r, got[d][r], want[d][r])
			}
		}
	}

	// Invariant 1: no device lost, full history on exactly one node.
	total := 0
	owned := make(map[int]int)
	for i, cn := range clus.Nodes {
		if !clus.Alive(i) {
			continue
		}
		reg := cn.Srv.Registry()
		total += reg.Len()
		for d := 0; d < p.devices; d++ {
			if info, err := reg.Get(fleettest.SoakDeviceID(d)); err == nil {
				owned[d]++
				if info.Stats.Decisions != int64(p.events) {
					report("device %d on %s decided %d of %d events", d, cn.ID, info.Stats.Decisions, p.events)
				}
			}
		}
	}
	if total != p.devices {
		report("cluster holds %d devices, want %d", total, p.devices)
	}
	for d := 0; d < p.devices; d++ {
		if owned[d] != 1 {
			report("device %d registered on %d nodes, want exactly 1", d, owned[d])
		}
	}

	// Invariant 2: exactly-once across the union journal (identical
	// migrated copies deduplicate first).
	unique := make(map[string]bool)
	perSeq := make(map[string]int)
	for _, je := range clus.Journal() {
		if je.Entry.Degraded {
			report("degraded journal entry on %s for %s seq %d", je.Node, je.Entry.Device, je.Entry.Seq)
			continue
		}
		b, err := json.Marshal(je.Entry)
		if err != nil {
			return err
		}
		if unique[string(b)] {
			continue
		}
		unique[string(b)] = true
		perSeq[fmt.Sprintf("%s/%d", je.Entry.Device, je.Entry.Seq)]++
	}
	for d := 0; d < p.devices; d++ {
		for i := 1; i <= p.events; i++ {
			key := fmt.Sprintf("%s/%d", fleettest.SoakDeviceID(d), i)
			if n := perSeq[key]; n != 1 {
				report("union journal has %d distinct decisions for %s, want exactly 1", n, key)
			}
		}
	}
	st := c.Stats()
	fmt.Printf("\ncluster pass: %d decisions, %d retries, %d redirects, %d unique journal entries\n",
		p.devices*p.events, st.Retries, st.Redirects, len(unique))
	return nil
}
