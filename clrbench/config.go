package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Config sizes one workload. configFor returns the benchmark's
// settings; the tests shrink them.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
	Log      io.Writer

	// Search selects the design-time workload (dse): a full search
	// on a generated application, then a short serving phase on the
	// database it produced.
	Search bool

	// Served database: built once per set-up with the same core.Build
	// call clrserved makes at its default flags.
	ServeTasks, ServePop, ServeGens int
	// SetupReps is how many times a run sets up; setup_s and dse_s
	// are the medians.
	SetupReps int

	// Design-time search of the dse workload (clrdse defaults). The
	// ReD sub-searches use half the stage-1 population and
	// generations, as clrdse does.
	SearchTasks, SearchPop, SearchGens int

	// Traffic.
	Devices  int           // registered devices
	Batch    int           // events per call; 0 sends single-event JSON calls
	Gamma    float64       // AuRA discount; 0 registers uRA devices
	Trigger  string        // "always" or "on-violation"
	Nodes    int           // cluster members; 1 serves without the cluster layer
	Shadow   bool          // install a shadow candidate before the timed phase
	Slice    time.Duration // length of one measured slice
	Replayed int           // devices whose streams are replayed through a detached manager

	// Per-layer replays of the traced run.
	SampleRandom int           // seeded random mappings added to the database's points
	LayerTime    time.Duration // time spent timing each layer function
}

// Settings no workload or test varies.
const (
	devicePRC   = 0.5 // every device's pRC
	callers     = 2   // closed-loop callers, one connection each
	warmupShare = 0.1 // share of the measured time spent warming up first
)

// baseConfig holds the settings every workload shares.
func baseConfig() Config {
	return Config{
		ServeTasks: 30, ServePop: 60, ServeGens: 40,
		SetupReps:   3,
		SearchTasks: 40, SearchPop: 80, SearchGens: 60,
		Devices:  256,
		Trigger:  "on-violation",
		Nodes:    1,
		Slice:    2 * time.Second,
		Replayed: 8,
		// One pass over the served database plus this many random
		// mappings is the sample every layer function is timed on.
		SampleRandom: 64,
		LayerTime:    150 * time.Millisecond,
	}
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []struct {
	name  string
	apply func(*Config)
}{
	{"serve-json", func(c *Config) {}},
	{"serve-batch", func(c *Config) {
		c.Devices, c.Batch, c.Gamma, c.Trigger, c.Shadow = 1024, 64, 0.8, "always", true
	}},
	{"serve-cluster", func(c *Config) { c.Nodes = 2 }},
	// The dse workload serves its new database with serve-batch's
	// traffic, minus the shadow: every event then runs the full search
	// over the database the search produced.
	{"dse", func(c *Config) {
		c.Search, c.Devices, c.Batch, c.Gamma, c.Trigger = true, 1024, 64, 0.8, "always"
	}},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// configFor returns the settings of the named workload.
func configFor(name string) (*Config, error) {
	for _, w := range workloads {
		if w.name == name {
			c := baseConfig()
			c.Workload = name
			w.apply(&c)
			return &c, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"call_p99_us", "us"},
	{"answered_ratio", "ratio"},
	{"cpu_us_per_decision", "us"},
	{"heap_mb", "MiB"},
	{"dse_s", "s"},
	{"dse_cpu_s", "s"},
	{"front_hv", "ratio"},
}

// perLayer are the metrics of a traced run, on every workload. A
// layer a workload does not exercise reports zero.
var perLayer = []metricDef{
	{"client.call_us", "us"},
	{"client.transport_us", "us"},
	{"client.calls", "count"},
	{"client.failed_ratio", "ratio"},
	{"fleet.handler_us", "us"},
	{"fleet.handler_self_us", "us"},
	{"fleet.requests", "count"},
	{"fleet.clrb_encode_ns", "ns"},
	{"fleet.clrb_decode_ns", "ns"},
	{"fleet.decide_us", "us"},
	{"fleet.decide_self_us", "us"},
	{"fleet.decisions", "count"},
	{"fleet.replays", "count"},
	{"fleet.degraded", "count"},
	{"fleet.timeouts", "count"},
	{"fleet.reconfig_ratio", "ratio"},
	{"fleet.violation_ratio", "ratio"},
	{"fleet.batch_events", "count"},
	{"fleet.shadow_events", "count"},
	{"fleet.shadow_agree_ratio", "ratio"},
	{"runtime.filter_us", "us"},
	{"runtime.score_us", "us"},
	{"runtime.switch_us", "us"},
	{"runtime.agent_update_us", "us"},
	{"runtime.search_ratio", "ratio"},
	{"obs.journal_entries", "count"},
	{"cluster.forward_ratio", "ratio"},
	{"cluster.forward_errors", "count"},
	{"cluster.forward_hop_us", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"dse.base_s", "s"},
	{"dse.red_s", "s"},
	{"dse.stage1_evals", "count"},
	{"dse.red_evals", "count"},
	{"dse.stage1_front", "count"},
	{"dse.red_extras", "count"},
	{"dse.evals_per_s", "1/s"},
	{"schedule.evaluate_ns", "ns"},
	{"schedule.evaluate_allocs", "count"},
	{"mapping.drc_ns", "ns"},
	{"mapping.drc_allocs", "count"},
	{"mapping.drc_total_ns", "ns"},
	{"mapping.drc_total_allocs", "count"},
	{"mapping.avg_drc_to_ns", "ns"},
	{"mapping.avg_drc_to_allocs", "count"},
	{"mapping.key_ns", "ns"},
	{"mapping.key_allocs", "count"},
	{"mapping.clone_ns", "ns"},
	{"mapping.clone_allocs", "count"},
	{"trace.rate_untraced", "1/s"},
	{"trace.rate_traced", "1/s"},
	{"trace.overhead_pct", "%"},
}
