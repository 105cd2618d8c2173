// Package schedule implements CLR-integrated task scheduling
// (Section 3.4) and the system-level QoS and performance estimation of
// Table 3. Given a complete mapping — per task: PE binding,
// implementation, CLR configuration and priority — a static
// priority-driven list scheduler produces average start/end times
// (SST_t, SET_t) for every task, from which the application metrics
// are derived:
//
//	S_app — average makespan:            max_t SET_t            (Eq. 1)
//	F_app — functional reliability:      sum_t zeta_t (1-ErrProb_t) (Eq. 2)
//	W_app — peak power:                  max_x sum of active W_t (Eq. 3)
//	J_app — energy:                      sum_t AvgExT_t * W_t    (Eq. 3)
//
// Cross-PE data dependencies pay the edge's communication time;
// same-PE dependencies are free. Consecutive accelerator tasks on a
// PRR-backed PE that require different circuits pay the bitstream
// reconfiguration time between them (time-multiplexed PRR use).
package schedule

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"clrdse/internal/mapping"
	"clrdse/internal/plot"
	"clrdse/internal/relmodel"
	"clrdse/internal/taskgraph"
)

// Slot is one task's placement in the computed schedule.
type Slot struct {
	// Task is the task ID.
	Task int
	// PE is the processing element the task executes on.
	PE int
	// StartMs and EndMs are the average start and end times (SST_t and
	// SET_t); durations use the implementation's AvgExT under its CLR
	// configuration.
	StartMs, EndMs float64
	// Metrics are the task-level Table 2 metrics for the chosen
	// (implementation, PE, CLR configuration).
	Metrics relmodel.TaskMetrics
}

// Result aggregates the schedule and the Table 3 system metrics.
type Result struct {
	// Slots is indexed by task ID.
	Slots []Slot
	// MakespanMs is S_app.
	MakespanMs float64
	// Reliability is F_app in [0,1].
	Reliability float64
	// PeakPowerW is W_app.
	PeakPowerW float64
	// EnergyMJ is J_app in millijoules (watts x milliseconds).
	EnergyMJ float64
	// MTTFMs is the lifetime estimate of the configuration: the
	// minimum task-level MTTF across the mapping (the first PE wear-out
	// limits the system).
	MTTFMs float64
	// MeetsPeriod reports whether the makespan fits within the
	// application period (one execution cycle).
	MeetsPeriod bool
}

// ErrorRate returns 1 - F_app, the application error rate used as the
// x-axis of the paper's Figure 1.
func (r *Result) ErrorRate() float64 { return 1 - r.Reliability }

// Evaluator computes schedules and system metrics for mappings within
// one problem instance. It is stateless apart from the instance
// definition and safe for concurrent use.
type Evaluator struct {
	// Space is the problem instance (graph, platform, catalogue).
	Space *mapping.Space
	// Env holds the fault-rate and aging environment.
	Env relmodel.Env
	// ContentionAware, when set, models the on-chip interconnect as a
	// shared medium: cross-PE transfers serialise on it instead of
	// only adding latency. The default (off) is the paper's additive
	// communication-delay model of Table 3.
	ContentionAware bool
}

// Evaluate schedules the mapping and returns the system metrics. The
// mapping must be valid for the space. Task durations are the
// analytical average execution times (Table 3's average start/end
// semantics).
func (e *Evaluator) Evaluate(m *mapping.Mapping) (*Result, error) {
	return e.run(m, nil)
}

// Timeline schedules the mapping with caller-supplied per-task
// durations (one entry per task ID, in ms) instead of the analytical
// averages — used by the fault-injection simulator to measure the
// makespan distribution under sampled re-execution times. All other
// metrics still derive from the analytical task models.
func (e *Evaluator) Timeline(m *mapping.Mapping, durationsMs []float64) (*Result, error) {
	if len(durationsMs) != e.Space.Graph.NumTasks() {
		return nil, fmt.Errorf("schedule: %d durations for %d tasks", len(durationsMs), e.Space.Graph.NumTasks())
	}
	for t, d := range durationsMs {
		if d <= 0 {
			return nil, fmt.Errorf("schedule: non-positive duration %v for task %d", d, t)
		}
	}
	return e.run(m, durationsMs)
}

func (e *Evaluator) run(m *mapping.Mapping, durOverride []float64) (*Result, error) {
	if err := e.Space.Validate(m); err != nil {
		return nil, err
	}
	g := e.Space.Graph
	plat := e.Space.Platform
	n := g.NumTasks()

	// Task-level metrics for the chosen implementation and CLR config.
	res := &Result{Slots: make([]Slot, n)}
	for t := 0; t < n; t++ {
		gene := m.Genes[t]
		im := &g.Tasks[t].Impls[gene.Impl]
		pt := plat.TypeOf(gene.PE)
		res.Slots[t] = Slot{
			Task:    t,
			PE:      gene.PE,
			Metrics: relmodel.Evaluate(im, pt, gene.CLR, e.Space.Catalogue, e.Env),
		}
	}

	// Priority-driven list scheduling over pooled scratch: the
	// adjacency is rebuilt from g.Edges on every call (the graph may
	// change under a live evaluator), but into reused buffers.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(n, plat.NumPEs())
	sc.adjacency(g)
	remaining, dataReady := sc.remaining, sc.dataReady
	peAvail, peLastBitstream := sc.peAvail, sc.peLastBitstream
	for t := 0; t < n; t++ {
		remaining[t] = sc.predOff[t+1] - sc.predOff[t]
		if remaining[t] == 0 {
			sc.ready = append(sc.ready, t)
		}
	}
	scheduled := 0
	busAvail := 0.0
	for len(sc.ready) > 0 {
		t := sc.popReady(m)

		gene := m.Genes[t]
		slot := &res.Slots[t]
		if e.ContentionAware {
			// Cross-PE transfers serialise on the shared interconnect
			// in scheduling order; every predecessor is already placed
			// when the list scheduler reaches t.
			for _, eid := range sc.predEdge[sc.predOff[t]:sc.predOff[t+1]] {
				edge := g.Edges[eid]
				arrive := res.Slots[edge.Src].EndMs
				if m.Genes[edge.Src].PE != gene.PE {
					ts := math.Max(busAvail, arrive)
					arrive = ts + edge.CommTimeMs
					busAvail = arrive
				}
				if arrive > dataReady[t] {
					dataReady[t] = arrive
				}
			}
		}
		start := math.Max(peAvail[gene.PE], dataReady[t])

		// Time-multiplexed PRR use: swapping circuits costs a
		// bitstream load before the task can start.
		im := &g.Tasks[t].Impls[gene.Impl]
		if im.BitstreamID >= 0 {
			prr := plat.PEs[gene.PE].PRR
			if last := peLastBitstream[gene.PE]; last >= 0 && last != im.BitstreamID {
				start += plat.BitstreamLoadMs(plat.PRRs[prr].BitstreamKB)
			}
			peLastBitstream[gene.PE] = im.BitstreamID
		}

		dur := slot.Metrics.AvgExTMs
		if durOverride != nil {
			dur = durOverride[t]
		}
		slot.StartMs = start
		slot.EndMs = start + dur
		peAvail[gene.PE] = slot.EndMs
		scheduled++

		for _, eid := range sc.succEdge[sc.succOff[t]:sc.succOff[t+1]] {
			edge := g.Edges[eid]
			if !e.ContentionAware {
				arrive := slot.EndMs
				if m.Genes[edge.Dst].PE != gene.PE {
					arrive += edge.CommTimeMs
				}
				if arrive > dataReady[edge.Dst] {
					dataReady[edge.Dst] = arrive
				}
			}
			remaining[edge.Dst]--
			if remaining[edge.Dst] == 0 {
				sc.ready = append(sc.ready, edge.Dst)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("schedule: only %d of %d tasks schedulable (cyclic graph?)", scheduled, n)
	}

	// System-level metrics (Table 3).
	res.MTTFMs = math.Inf(1)
	for t := 0; t < n; t++ {
		s := &res.Slots[t]
		if s.EndMs > res.MakespanMs {
			res.MakespanMs = s.EndMs
		}
		res.Reliability += g.Tasks[t].Criticality * (1 - s.Metrics.ErrProb)
		res.EnergyMJ += s.Metrics.AvgExTMs * s.Metrics.PowerW
		if s.Metrics.MTTFMs < res.MTTFMs {
			res.MTTFMs = s.Metrics.MTTFMs
		}
	}
	res.PeakPowerW = peakPower(res.Slots, sc)
	res.MeetsPeriod = res.MakespanMs <= g.PeriodMs
	return res, nil
}

// powerEvent is one task's power step at its start (+W) or end (-W).
type powerEvent struct {
	at    float64
	delta float64
}

// peakPower sweeps the schedule's start/end events and returns the
// maximum instantaneous sum of active task powers (Eq. 3's W_app).
// Events tied on both keys are interchangeable, so any sort yields the
// same sum.
func peakPower(slots []Slot, sc *scratch) float64 {
	evs := sc.events[:0]
	for i := range slots {
		evs = append(evs,
			powerEvent{slots[i].StartMs, slots[i].Metrics.PowerW},
			powerEvent{slots[i].EndMs, -slots[i].Metrics.PowerW},
		)
	}
	sc.events = evs
	slices.SortFunc(evs, func(a, b powerEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		// Process departures before arrivals at equal timestamps so
		// back-to-back tasks on one PE do not double-count.
		case a.delta < b.delta:
			return -1
		case a.delta > b.delta:
			return 1
		}
		return 0
	})
	cur, peak := 0.0, 0.0
	for _, ev := range evs {
		cur += ev.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// scratch is the per-call working state of the list scheduler, pooled
// because the GA's evaluation goroutines schedule thousands of genomes
// per second. Result and its Slots are not part of it: they are the
// memoised payload handed to the caller.
type scratch struct {
	remaining       []int // unscheduled predecessor count per task
	dataReady       []float64
	peAvail         []float64
	peLastBitstream []int
	ready           []int
	// predOff/predEdge and succOff/succEdge are the graph's incoming
	// and outgoing edge IDs in CSR form, each task's run in g.Edges
	// order (the order Graph.Preds and Graph.Succs list them in).
	predOff, succOff   []int
	predEdge, succEdge []int
	events             []powerEvent
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to n elements, reusing its backing array.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// reset sizes the buffers for n tasks on nPE processing elements and
// restores their initial values.
func (sc *scratch) reset(n, nPE int) {
	sc.remaining = grow(sc.remaining, n)
	sc.dataReady = grow(sc.dataReady, n)
	clear(sc.dataReady)
	sc.peAvail = grow(sc.peAvail, nPE)
	clear(sc.peAvail)
	sc.peLastBitstream = grow(sc.peLastBitstream, nPE)
	for i := range sc.peLastBitstream {
		sc.peLastBitstream[i] = -1
	}
	sc.ready = sc.ready[:0]
}

// adjacency builds the CSR predecessor and successor lists of g.
func (sc *scratch) adjacency(g *taskgraph.Graph) {
	n := g.NumTasks()
	sc.predOff = grow(sc.predOff, n+1)
	sc.succOff = grow(sc.succOff, n+1)
	clear(sc.predOff)
	clear(sc.succOff)
	for i := range g.Edges {
		sc.predOff[g.Edges[i].Dst+1]++
		sc.succOff[g.Edges[i].Src+1]++
	}
	for t := 0; t < n; t++ {
		sc.predOff[t+1] += sc.predOff[t]
		sc.succOff[t+1] += sc.succOff[t]
	}
	sc.predEdge = grow(sc.predEdge, len(g.Edges))
	sc.succEdge = grow(sc.succEdge, len(g.Edges))
	// Fill each run front to back, using remaining as the cursor.
	copy(sc.remaining, sc.predOff[:n])
	for i := range g.Edges {
		e := &g.Edges[i]
		sc.predEdge[sc.remaining[e.Dst]] = e.ID
		sc.remaining[e.Dst]++
	}
	copy(sc.remaining, sc.succOff[:n])
	for i := range g.Edges {
		e := &g.Edges[i]
		sc.succEdge[sc.remaining[e.Src]] = e.ID
		sc.remaining[e.Src]++
	}
}

// popReady removes and returns the ready task first under (priority
// desc, task ID asc). That order is total over distinct task IDs, so a
// linear scan picks exactly the task a full sort would put first.
func (sc *scratch) popReady(m *mapping.Mapping) int {
	best := 0
	for i := 1; i < len(sc.ready); i++ {
		a, b := sc.ready[i], sc.ready[best]
		if pa, pb := m.Genes[a].Prio, m.Genes[b].Prio; pa > pb || (pa == pb && a < b) {
			best = i
		}
	}
	t := sc.ready[best]
	last := len(sc.ready) - 1
	sc.ready[best] = sc.ready[last]
	sc.ready = sc.ready[:last]
	return t
}

// Gantt renders the schedule as an SVG lane chart, one lane per PE,
// with each task bar labelled by its name.
func (r *Result) Gantt(title string, names func(task int) string) string {
	c := &plot.GanttChart{Title: title, LaneNames: map[int]string{}}
	for _, s := range r.Slots {
		label := fmt.Sprintf("t%d", s.Task)
		if names != nil {
			label = names(s.Task)
		}
		c.Bars = append(c.Bars, plot.Bar{
			Lane:    s.PE,
			Label:   label,
			StartMs: s.StartMs,
			EndMs:   s.EndMs,
		})
		c.LaneNames[s.PE] = fmt.Sprintf("PE%d", s.PE)
	}
	return c.SVG()
}
