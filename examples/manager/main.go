// Deployment: embedding the run-time manager in a control loop. The
// other examples *simulate* the environment; this one shows the API a
// real system integrator calls — build the database at design time,
// ship it, boot a Manager, and hand it every QoS change as it happens.
// Each decision comes back with the imperative reconfiguration plan
// (bitstream loads first, then binary copies, then the free steps), so
// the platform layer can execute it verbatim.
package main

import (
	"fmt"
	"log"

	clr "clrdse"
)

func main() {
	// Design time (on the workstation): explore, prune to the target's
	// storage budget, and persist the database.
	app, err := clr.Generate(clr.GenParams{Seed: 12, NumTasks: 20}, clr.DefaultPlatform())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := clr.Build(app, clr.Options{
		Seed:           6,
		HeuristicSeeds: true,
		StageOne:       clr.GAParams{PopSize: 40, Generations: 25},
	})
	if err != nil {
		log.Fatal(err)
	}
	db, err := clr.Prune(sys.Database(), 16, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipping database: %d stored points (pruned from %d)\n",
		db.Len(), sys.Database().Len())

	// Deployment (on the target): boot the manager into the initial
	// operating requirements.
	minS, maxS, minF, maxF := db.Envelope()
	mgr, err := clr.NewManager(clr.ManagerParams{
		DB:      db,
		Space:   sys.Problem.Space,
		PRC:     0.4,
		Trigger: clr.TriggerOnViolation,
	}, clr.QoSSpec{SMaxMs: maxS, FMin: minF})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted at point %d (S=%.1f ms, F=%.4f, J=%.1f mJ)\n\n",
		mgr.Current(), mgr.CurrentPoint().MakespanMs,
		mgr.CurrentPoint().Reliability, mgr.CurrentPoint().EnergyMJ)

	// The control loop: operating requirements change; the manager
	// decides and hands back the plan.
	changes := []struct {
		why  string
		spec clr.QoSSpec
	}{
		{"entering target area: tighten reliability", clr.QoSSpec{SMaxMs: maxS, FMin: maxF * 0.99995}},
		{"frame-rate burst: tighten deadline", clr.QoSSpec{SMaxMs: (minS + maxS) / 2, FMin: minF}},
		{"battery saver: relax everything", clr.QoSSpec{SMaxMs: maxS, FMin: minF}},
		{"both tight (may be unsatisfiable)", clr.QoSSpec{SMaxMs: minS, FMin: maxF}},
	}
	for _, c := range changes {
		d := mgr.OnQoSChange(c.spec)
		fmt.Printf("%-45s -> %s\n", c.why, d.Describe())
		for _, a := range d.Plan {
			fmt.Printf("    %s\n", a)
		}
	}
}
