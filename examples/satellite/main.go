// Satellite surveillance: the paper's motivating scenario, run through
// the library's scripted-scenario engine. A satellite's
// image-processing pipeline must keep operating perpetually while its
// battery level swings with sunlight exposure and its acceptable error
// rate swings with the terrain under surveillance:
//
//   - eclipse/ocean — no solar harvest, relaxed accuracy;
//   - sunlit/ocean  — full harvest, moderate demands;
//   - sunlit/target — full harvest, the tightest reliability bound.
//
// The run-time manager tracks each regime's QoS process, and the
// battery coupling triggers the paper's "conserve energy at the cost
// of higher application error rate" behaviour whenever the state of
// charge sags below the low watermark. The example contrasts the
// adaptive mission with pinning the worst-case configuration.
package main

import (
	"fmt"
	"log"
	"math"

	clr "clrdse"
)

func main() {
	plat := clr.DefaultPlatform()
	app, err := clr.Generate(clr.GenParams{Seed: 9, NumTasks: 30}, plat)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := clr.Build(app, clr.Options{
		Seed:     2,
		FMin:     0.85,
		StageOne: clr.GAParams{PopSize: 48, Generations: 30},
	})
	if err != nil {
		log.Fatal(err)
	}
	db := sys.Database()
	fmt.Printf("mission database: %d stored configurations\n", db.Len())

	// Derive the mission regimes from the database's QoS envelope.
	minS, maxS, minF, maxF := db.Envelope()
	minJ := math.Inf(1)
	for _, p := range db.Points {
		minJ = math.Min(minJ, p.EnergyMJ)
	}
	spec := func(sMax, fMin float64) clr.QoSModel {
		return clr.QoSModel{
			MeanS: sMax, StdS: sMax / 50, MeanF: fMin, StdF: 0.0005, Persist: 0.5,
			LoS: minS, HiS: maxS * 1.05, LoF: math.Max(0, minF-0.01), HiF: maxF,
		}
	}
	orbit := clr.Scenario{
		Repeat: true,
		Regimes: []clr.Regime{
			{Name: "eclipse/ocean", DurationCycles: 40_000, QoS: spec(maxS, minF), HarvestMJPerCycle: 0},
			{Name: "sunlit/ocean", DurationCycles: 30_000, QoS: spec((minS+maxS)/2, (minF+maxF)/2), HarvestMJPerCycle: 2.8 * minJ},
			{Name: "sunlit/target", DurationCycles: 30_000, QoS: spec(maxS, maxF*0.9999), HarvestMJPerCycle: 2.8 * minJ},
		},
	}
	battery := &clr.Battery{
		CapacityMJ: minJ * 80_000, // most of an orbit of frugal processing
		RelaxF:     0.01,
	}

	params := clr.ScenarioParams{
		Params:   sys.RuntimeParams(db, 0.5, 17),
		Scenario: orbit,
		Battery:  battery,
	}
	params.Cycles = 1_000_000 // ten orbits
	params.Trigger = clr.TriggerOnViolation

	m, err := clr.SimulateScenario(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-15s %12s %10s %10s %12s\n", "regime", "cycles", "events", "reconfigs", "J/cycle (mJ)")
	for _, rm := range m.PerRegime {
		fmt.Printf("%-15s %12.0f %10d %10d %12.2f\n",
			rm.Name, rm.Cycles, rm.Events, rm.Reconfigs, rm.EnergyMJ/rm.Cycles)
	}
	fmt.Printf("\nmission totals: %d events, %d reconfigs, avg dRC %.4f ms, avg energy %.2f mJ/cycle\n",
		m.Events, m.Reconfigs, m.AvgDRC, m.AvgEnergyMJ)
	fmt.Printf("battery: min SoC %.0f%%, final SoC %.0f%%, %d low-power events, %.0f unpowered cycles\n",
		100*m.MinSoC, 100*m.FinalSoC, m.LowPowerEvents, m.DepletedCycles)

	// Baseline: pin the worst-case configuration (meets the tightest
	// regime at all times) and never adapt.
	pinned := math.Inf(1)
	for _, p := range db.Points {
		if p.Feasible(maxS, maxF*0.9999) && p.EnergyMJ < pinned {
			pinned = p.EnergyMJ
		}
	}
	if math.IsInf(pinned, 1) {
		log.Fatal("no stored point satisfies the tightest regime")
	}
	fmt.Printf("\nfixed worst-case configuration: %.2f mJ/cycle -> dynamic CLR saves %.1f%%\n",
		pinned, 100*(pinned-m.AvgEnergyMJ)/pinned)
}
