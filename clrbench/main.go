// Command clrbench is the end-to-end benchmark of the clrdse system.
// It drives the design-time search (dse) and the fleet decision
// service (fleet, cluster, runtime) from outside, through their public
// Go API, checks every answer, and prints one JSON result line:
//
//	clrbench --workload serve-json --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a separate traced run,
// and the span dump is written under --out-dir. The process exits
// non-zero when an output check fails. See README.md for the
// workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints its result. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives the generated inputs only")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory for the span dump of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "clrbench: --trace must be 0 or 1")
		return 2
	}
	cfg, err := configFor(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "clrbench:", err)
		return 2
	}
	cfg.Seed = *seed
	cfg.Seconds = *seconds
	cfg.Trace = *trace == 1
	cfg.OutDir = *outDir
	cfg.Log = stderr

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "clrbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "clrbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runWorkload runs the configured workload and assembles the result
// for the requested metric set. Output-check failures are logged and
// make the result incorrect; they are not returned as errors.
func runWorkload(cfg *Config) (*Result, error) {
	var (
		m   *measurement
		err error
	)
	if cfg.Search {
		m, err = runDSE(cfg)
	} else {
		m, err = runServe(cfg)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range m.checks.failures {
		fmt.Fprintln(cfg.Log, "check failed:", f)
	}
	if n := m.checks.dropped; n > 0 {
		fmt.Fprintf(cfg.Log, "check failed: %d more failures not shown\n", n)
	}
	res := &Result{
		Correct:   m.checks.ok(),
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]Metric{},
	}
	want, source := endToEnd, m.e2e
	if cfg.Trace {
		want, source = perLayer, m.layers
	}
	for _, d := range want {
		v, ok := source[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.Workload, d.Name)
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	logMetrics(cfg.Log, res.Metrics)
	return res, nil
}

// logMetrics writes the result in a readable form to the log.
func logMetrics(w io.Writer, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
