package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/runtime"
)

// tinyConfig shrinks a workload so a run takes well under a second of
// measuring.
func tinyConfig(t *testing.T, workload string, trace bool) *Config {
	t.Helper()
	cfg, err := configFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 3
	cfg.Seconds = 0.4
	cfg.Trace = trace
	cfg.OutDir = t.TempDir()
	cfg.Log = io.Discard
	cfg.ServeTasks, cfg.ServePop, cfg.ServeGens = 8, 12, 4
	cfg.SearchTasks, cfg.SearchPop, cfg.SearchGens = 8, 12, 4
	cfg.SetupReps = 2
	cfg.Devices = min(cfg.Devices, 16)
	if cfg.Batch > 0 {
		cfg.Batch = 8
	}
	cfg.Slice = 100 * time.Millisecond
	cfg.Replayed = 2
	cfg.SampleRandom = 4
	cfg.LayerTime = 2 * time.Millisecond
	return cfg
}

// tinySystem builds a small served database.
func tinySystem(t *testing.T) *core.System {
	t.Helper()
	cfg := tinyConfig(t, "serve-json", false)
	b, err := buildServed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b.sys
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			cfg := tinyConfig(t, name, trace)
			t.Run(strings.Join([]string{name, map[bool]string{false: "e2e", true: "traced"}[trace]}, "/"), func(t *testing.T) {
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]json.RawMessage
				if err := json.Unmarshal(line, &back); err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := back[k]; !ok || len(back) != 4 {
						t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
					}
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dse", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestInputStreamDeterministic(t *testing.T) {
	model := qosModel(10, 30, 0.9, 0.99)
	a := inputStream(7, 4, 50, model)
	b := inputStream(7, 4, 50, model)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated two different input streams")
	}
	if c := inputStream(8, 4, 50, model); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 generated the same input stream")
	}
}

func TestCheckAnswerFiresOnCorruptedAnswer(t *testing.T) {
	sys := tinySystem(t)
	db := sys.Database()
	// A spec every point meets, and one the first point misses.
	loose := fleet.QoSSpecJSON{SMaxMs: 1e9, FMin: 0}
	p0 := db.Points[0]
	tight := fleet.QoSSpecJSON{SMaxMs: p0.MakespanMs / 2, FMin: 0}
	good := fleet.DecisionJSON{Device: "dev", Seq: 4, From: 0, To: 0}
	if err := checkAnswer(&good, "dev", 4, loose, db); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	flagged := good
	flagged.Violated = true
	if err := checkAnswer(&flagged, "dev", 4, tight, db); err != nil {
		t.Fatalf("violation-flagged answer rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mut  func(*fleet.DecisionJSON)
		spec fleet.QoSSpecJSON
	}{
		"other device":   {func(d *fleet.DecisionJSON) { d.Device = "other" }, loose},
		"other seq":      {func(d *fleet.DecisionJSON) { d.Seq = 5 }, loose},
		"point past end": {func(d *fleet.DecisionJSON) { d.To = db.Len() }, loose},
		"negative point": {func(d *fleet.DecisionJSON) { d.To = -1 }, loose},
		"bad from":       {func(d *fleet.DecisionJSON) { d.From = db.Len() + 3 }, loose},
		"misses spec":    {func(d *fleet.DecisionJSON) {}, tight},
	} {
		d := good
		tc.mut(&d)
		if err := checkAnswer(&d, "dev", 4, tc.spec, db); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

func TestReplayCheckFiresOnCorruptedAnswer(t *testing.T) {
	sys := tinySystem(t)
	db := sys.Database()
	mp := runtime.ManagerParams{DB: db, Space: sys.Problem.Space, PRC: 0.5, Trigger: runtime.TriggerAlways}
	minS, maxS, minF, maxF := fleet.NamedDatabase{Name: "red", DB: db, Space: sys.Problem.Space}.Envelope()
	initial := runtime.QoSSpec{SMaxMs: maxS, FMin: minF}
	dev := newDevices(1, 1, qosModel(minS, maxS, minF, maxF))[0]
	m, err := runtime.NewManager(mp, initial)
	if err != nil {
		t.Fatal(err)
	}
	var events []served
	reconfigured := -1
	for i := range 200 {
		spec := dev.nextSpec().Spec()
		d := m.OnQoSChange(spec)
		if d.Reconfigured && reconfigured < 0 {
			reconfigured = i
		}
		events = append(events, served{spec: spec, ans: fleet.DecisionJSON{
			From: d.From, To: d.To, Reconfigured: d.Reconfigured, Violated: d.Violated, CostMs: d.Cost.Total(),
		}})
	}
	if err := checkReplay(mp, initial, "dev", events); err != nil {
		t.Fatalf("faithful stream rejected: %v", err)
	}
	if reconfigured < 0 {
		t.Fatal("stream never reconfigured; the corruption cases need one that does")
	}
	for name, mut := range map[string]func(*fleet.DecisionJSON){
		"to":           func(d *fleet.DecisionJSON) { d.To = (d.To + 1) % db.Len() },
		"from":         func(d *fleet.DecisionJSON) { d.From = (d.From + 1) % db.Len() },
		"reconfigured": func(d *fleet.DecisionJSON) { d.Reconfigured = !d.Reconfigured },
		"violated":     func(d *fleet.DecisionJSON) { d.Violated = !d.Violated },
		"cost":         func(d *fleet.DecisionJSON) { d.CostMs += 0.001 },
	} {
		bad := append([]served(nil), events...)
		mut(&bad[reconfigured].ans)
		if err := checkReplay(mp, initial, "dev", bad); err == nil {
			t.Errorf("%s: corrupted answer passed the replay", name)
		}
	}
}

func TestCounterCheckFires(t *testing.T) {
	good := promDelta{
		"clr_fleet_decisions_total":          10,
		"clr_fleet_replays_total":            0,
		"clr_fleet_degraded_decisions_total": 0,
		"clr_decisions_explained_total":      10,
	}
	c := &checks{}
	counterCheck(c, 10, good)
	if !c.ok() {
		t.Fatalf("consistent counters rejected: %v", c.failures)
	}
	for name, tc := range map[string]struct {
		answered int64
		series   string
		value    float64
	}{
		"lost decision":   {11, "", 0},
		"replay":          {10, "clr_fleet_replays_total", 1},
		"journal missing": {10, "clr_decisions_explained_total", 9},
		"journal doubled": {10, "clr_decisions_explained_total", 20},
	} {
		d := promDelta{}
		for k, v := range good {
			d[k] = v
		}
		if tc.series != "" {
			d[tc.series] = tc.value
		}
		c := &checks{}
		counterCheck(c, tc.answered, d)
		if c.ok() {
			t.Errorf("%s: inconsistent counters accepted", name)
		}
	}
}

func TestDatabaseCheckFires(t *testing.T) {
	sys := tinySystem(t)
	db := sys.Database()
	if err := checkDatabase(db, sys.Problem); err != nil {
		t.Fatalf("built database rejected: %v", err)
	}
	clone := func() *dse.Database {
		out := &dse.Database{Name: db.Name}
		for _, p := range db.Points {
			q := *p
			out.Points = append(out.Points, &q)
		}
		return out
	}
	broken := clone()
	broken.Points[0].ID = 7
	if err := checkDatabase(broken, sys.Problem); err == nil {
		t.Error("database with a non-dense ID accepted")
	}
	noMap := clone()
	noMap.Points[0].M = nil
	if err := checkDatabase(noMap, sys.Problem); err == nil {
		t.Error("database with a point lacking its mapping accepted")
	}
	// A stored-front point worse than another on every objective.
	dominated := clone()
	p := *dominated.ParetoPoints()[0]
	p.ID = dominated.Len()
	p.M = p.M.Clone()
	p.EnergyMJ *= 1.5
	p.MakespanMs *= 1.01
	p.Reliability -= (1 - p.Reliability) * 0.5
	dominated.Points = append(dominated.Points, &p)
	if err := checkDatabase(dominated, sys.Problem); err == nil {
		t.Error("database whose stored front holds a dominated point accepted")
	}
}

func TestSearchRepeatsForOneSeed(t *testing.T) {
	cfg := tinyConfig(t, "dse", false)
	var prints []uint64
	var stats []dse.Stats
	for range 2 {
		prob, err := newProblem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := search(cfg, prob, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := fleet.NewRegistry([]fleet.NamedDatabase{{Name: "red", DB: s.red, Space: prob.Space}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, fp, err := reg.ActiveSnapshot("red")
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, fp)
		stats = append(stats, s.stats)
	}
	if prints[0] != prints[1] || stats[0] != stats[1] {
		t.Fatalf("two searches of one seed differ: fingerprints %x, effort %+v", prints, stats)
	}
}

func TestFrontHVUsesProblemReference(t *testing.T) {
	sys := tinySystem(t)
	db := sys.Database()
	hv := frontHV(db, sys.Problem)
	if hv <= 0 || hv >= 1 {
		t.Fatalf("front_hv = %v, want a share of the reference box in (0, 1)", hv)
	}
	// Dropping all but the first point can only lose volume.
	one := &dse.Database{Name: db.Name, Points: db.Points[:1]}
	if got := frontHV(one, sys.Problem); got > hv {
		t.Fatalf("one point covers %v, the whole database %v", got, hv)
	}
}
