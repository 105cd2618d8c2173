// Command clrchaos soak-tests the fleet decision service on the
// fleettest soak harness. It runs the design-time flow once, then
// drives the same fleet of simulated devices through the same seeded
// QoS event scripts twice: a reference pass on one fault-free node,
// and a soak pass that attacks either the serving stack or cluster
// membership:
//
//   - by default one node runs under the full fault schedule (dropped
//     requests, latency spikes, truncated and mangled response bodies,
//     server-side rejections, stalled and corrupted decision paths),
//     seeded by -chaos-seed and scaled by -intensity; the resilient
//     client masks the faults with retries;
//   - with -cluster N (N > 1), an N-node ring serves AuRA devices while
//     a schedule seeded by -chaos-seed kills (drains) and restarts
//     nodes between event rounds.
//
// The harness's checker (fleettest.CheckSoak) then asserts the soak
// invariants: every event answered byte-identically to the reference,
// every device on exactly one node having decided exactly its events,
// exactly one non-degraded journal entry under a valid trace ID per
// (device, seq), and degraded answers only where faults were injected.
// The command exits non-zero on any violation, which is how CI
// consumes it.
//
// Usage:
//
//	clrchaos -devices 8 -events 40
//	clrchaos -intensity 2 -chaos-seed 99 -decide-timeout 100ms
//	clrchaos -cluster 3 -devices 6 -events 24
//	clrchaos -journal-out /tmp/journal.json   # dump the soak pass's journal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"clrdse/internal/chaos"
	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/ga"
	"clrdse/internal/obs"
	"clrdse/internal/platform"
	"clrdse/internal/taskgraph"
)

func main() {
	var (
		tasks = flag.Int("tasks", 20, "synthetic application size")
		seed  = flag.Int64("seed", 51, "design-time root seed")
		pop   = flag.Int("pop", 28, "stage-1 GA population")
		gens  = flag.Int("gens", 12, "stage-1 GA generations")

		p    soakParams
		jout = flag.String("journal-out", "", "write the soak pass's decision journal JSON here (always when set, plus on any violation)")
	)
	flag.IntVar(&p.devices, "devices", 8, "simulated device count")
	flag.IntVar(&p.events, "events", 40, "QoS events per device")
	flag.Int64Var(&p.specSeed, "spec-seed", 7, "QoS event script seed")
	flag.Int64Var(&p.chaosSeed, "chaos-seed", 99, "fault schedule seed (kill/restart schedule seed with -cluster)")
	flag.Float64Var(&p.intensity, "intensity", 1, "scales every fault probability")
	flag.IntVar(&p.attempts, "attempts", 6, "client attempts per call")
	flag.DurationVar(&p.attemptT, "attempt-timeout", 2*time.Second, "client per-attempt deadline")
	flag.DurationVar(&p.decideTO, "decide-timeout", 250*time.Millisecond, "server per-decision deadline")
	flag.IntVar(&p.nodes, "cluster", 0, "cluster soak mode: run an N-node ring and attack membership (seeded kill/restart) instead of the transport")
	flag.Parse()

	log := obs.NewLogger(os.Stderr)
	plat := platform.Default()
	app, err := taskgraph.Generate(taskgraph.GenParams{Seed: *seed, NumTasks: *tasks}, plat)
	if err != nil {
		fatal(err)
	}
	log.Info("design-time exploration starting", "tasks", len(app.Tasks))
	sys, err := core.Build(app, core.Options{
		Seed:     *seed,
		StageOne: ga.Params{PopSize: *pop, Generations: *gens},
		ReD: dse.ReDParams{
			GA: ga.Params{PopSize: *pop / 2, Generations: *gens / 2},
		},
	})
	if err != nil {
		fatal(err)
	}
	p.dbs = []fleet.NamedDatabase{{Name: "red", DB: sys.Database(), Space: sys.Problem.Space}}

	log.Info("soak starting", "nodes", max(p.nodes, 1), "devices", p.devices, "events", p.events, "chaos_seed", p.chaosSeed)
	res, violations, err := runSoak(p, os.Stdout)
	if err != nil {
		fatal(err)
	}
	for _, v := range violations {
		fmt.Printf("INVARIANT VIOLATED: %s\n", v)
	}
	if *jout != "" || len(violations) > 0 {
		// With no explicit path the journal lands in the working
		// directory, so a failing CI run still leaves an artifact.
		path := *jout
		if path == "" {
			path = "clrchaos-journal.json"
		}
		if err := obs.WriteJournal(path, res.Journal); err != nil {
			log.Error("journal dump failed", "err", err)
		} else {
			fmt.Printf("decision journal written to %s\n", path)
		}
	}
	if len(violations) > 0 {
		fmt.Printf("\nFAIL: %d invariant violations\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("\nOK: %d decisions byte-identical to the single-node fault-free reference; no device lost, each explained exactly once in the journal\n",
		p.devices*p.events)
}

type soakParams struct {
	dbs                 []fleet.NamedDatabase
	nodes               int
	devices, events     int
	specSeed, chaosSeed int64
	intensity           float64
	attempts            int
	attemptT, decideTO  time.Duration
}

// runSoak runs the reference pass and the soak pass — one node under
// the injector, or with nodes > 1 that many nodes under the seeded
// membership schedule — prints the soak's activity to out, and returns
// the soak pass's evidence with the checker's verdict on it.
func runSoak(p soakParams, out io.Writer) (fleettest.SoakResult, []string, error) {
	ctx := context.Background()
	scripts := fleettest.SplitScripts(p.dbs[0].DB, p.specSeed, p.devices, p.events)
	opt := fleettest.ClusterOptions{Nodes: max(p.nodes, 1), Databases: p.dbs, DecideTimeout: p.decideTO}
	var (
		schedule []fleettest.SoakEvent
		gamma    float64
	)
	if p.nodes > 1 {
		schedule = fleettest.SoakSchedule(p.chaosSeed, p.events, p.nodes)
		gamma = 0.9
	} else {
		opt.Injector = chaos.New(faults(p))
	}

	var c *client.Client // the latest pass's client
	newClient := func(inj *chaos.Injector) func([]string) fleettest.SoakClient {
		return func(urls []string) fleettest.SoakClient {
			tr := http.DefaultTransport.(*http.Transport).Clone()
			tr.MaxIdleConnsPerHost = p.devices
			var rt http.RoundTripper = tr
			if inj != nil {
				rt = &chaos.Transport{Injector: inj, Base: tr}
			}
			c = client.New(client.Config{
				Targets:        urls,
				Transport:      rt,
				MaxAttempts:    p.attempts,
				AttemptTimeout: p.attemptT,
				JitterSeed:     p.specSeed,
				RetryDegraded:  true,
				// See fleettest.SoakClient: the soak wants the retry
				// path hot, not breakers opening on deliberate faults.
				BreakerThreshold: 1 << 20,
			})
			return c
		}
	}

	refOpt := opt
	refOpt.Nodes, refOpt.Injector = 1, nil
	ref, err := fleettest.RunSoak(ctx, refOpt, newClient(nil), gamma, scripts, nil)
	if err != nil {
		return ref, nil, fmt.Errorf("reference pass: %w", err)
	}
	if len(schedule) > 0 {
		fmt.Fprintf(out, "membership schedule (seed %d):\n", p.chaosSeed)
		for _, ev := range schedule {
			verb := "kill"
			if ev.Restart {
				verb = "restart"
			}
			fmt.Fprintf(out, "  round %-3d %s node-%d\n", ev.Round, verb, ev.Node)
		}
	}
	got, err := fleettest.RunSoak(ctx, opt, newClient(opt.Injector), gamma, scripts, schedule)
	if err != nil {
		return got, nil, fmt.Errorf("soak pass: %w", err)
	}

	fmt.Fprintln(out)
	if inj := opt.Injector; inj != nil {
		fmt.Fprintf(out, "faults injected:   %d\n", inj.Injected())
		for k := chaos.DropRequest; k <= chaos.Corrupt; k++ {
			if n := inj.Count(k); n > 0 {
				fmt.Fprintf(out, "  %-18s %d\n", k.String()+":", n)
			}
		}
	}
	st := c.Stats()
	fmt.Fprintf(out, "client retries:    %d\n", st.Retries)
	fmt.Fprintf(out, "client redirects:  %d\n", st.Redirects)
	fmt.Fprintf(out, "breaker rejects:   %d\n", st.BreakerRejects)
	fmt.Fprintf(out, "degraded retried:  %d\n", st.DegradedRetries)
	fmt.Fprintf(out, "re-submissions:    %d\n", got.Resubmits)
	fmt.Fprintf(out, "journal entries:   %d\n", len(got.Journal))
	return got, fleettest.CheckSoak(ref, got), nil
}

// faults is the single-node soak's fault schedule, every probability
// scaled by the intensity; stalls outlive the decision deadline, so
// they degrade.
func faults(p soakParams) chaos.Config {
	k := p.intensity
	return chaos.Config{
		Seed:              p.chaosSeed,
		PDropRequest:      0.04 * k,
		PLatency:          0.04 * k,
		PDropResponse:     0.04 * k,
		PTruncateResponse: 0.03 * k,
		PMangleResponse:   0.03 * k,
		LatencyMin:        time.Millisecond,
		LatencyMax:        10 * time.Millisecond,
		PReject:           0.05 * k,
		PServerLatency:    0.04 * k,
		PStall:            0.04 * k,
		PCorrupt:          0.04 * k,
		StallMin:          p.decideTO * 2,
		StallMax:          p.decideTO * 4,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clrchaos:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "clrchaos: consider raising -attempt-timeout")
	}
	os.Exit(1)
}
