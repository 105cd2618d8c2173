package fleettest

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"clrdse/internal/fleet/client"
	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

const soakDevices, soakRounds = 2, 8

// soakPass runs a membership-soak pass of the test's tiny fleet on
// nodes nodes.
func soakPass(t *testing.T, nodes int, schedule []SoakEvent) SoakResult {
	t.Helper()
	dbs := Databases(t)
	scripts := make([][]runtime.QoSSpec, soakDevices)
	for d := range scripts {
		scripts[d] = Script(dbs[0].DB, int64(11+d), soakRounds)
	}
	newClient := func(urls []string) SoakClient {
		return client.New(client.Config{
			Targets: urls, MaxAttempts: 6, AttemptTimeout: 5 * time.Second,
			JitterSeed: 3, BreakerThreshold: 1 << 20,
		})
	}
	opt := ClusterOptions{Nodes: nodes, Databases: dbs, TraceSeed: 9}
	res, err := RunSoak(context.Background(), opt, newClient, 0.9, scripts, schedule)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSoakPass: a two-node pass through a seeded kill/restart answers
// every event byte-identically to a single-node reference pass, and
// both passes are clean.
func TestSoakPass(t *testing.T) {
	events := SoakSchedule(3, soakRounds, 2)
	if len(events) < 2 || events[0].Restart || !events[1].Restart {
		t.Fatalf("schedule %+v does not kill and restart a node", events)
	}
	ref, got := soakPass(t, 1, nil), soakPass(t, 2, events)
	for _, v := range append(CheckSoak(ref, ref), CheckSoak(ref, got)...) {
		t.Error(v)
	}
}

// TestCheckSoakCatchesCorruption: each corruption of a clean pass's
// evidence makes the checker report the invariant it breaks, and the
// corruptions a pass may show — migrated copies; degraded entries and
// re-submissions under faults — keep the verdict clean.
func TestCheckSoakCatchesCorruption(t *testing.T) {
	ref := soakPass(t, 1, nil)
	node := slices.Collect(maps.Keys(ref.Devices))[0]
	first := ref.Journal[0]
	extra := func(edit func(e *obs.Entry)) func(r *SoakResult) {
		return func(r *SoakResult) {
			e := first
			edit(&e)
			r.Journal = append(r.Journal, e)
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(r *SoakResult)
		want    string // "" expects a clean verdict
	}{
		{"diverged decision", func(r *SoakResult) { r.Decisions[0][1] = `{"device":"x"}` }, "device 0 event 2 diverged"},
		{"missing answer", func(r *SoakResult) { r.Decisions[1][2] = "" }, "device 1 event 3 never answered"},
		{"lost device", func(r *SoakResult) { delete(r.Devices[node], "soak-1") }, "live nodes holding device soak-1: 0, want exactly 1"},
		{"device on two nodes", func(r *SoakResult) { r.Devices["node-9"] = map[string]int64{"soak-0": soakRounds} },
			"live nodes holding device soak-0: 2, want exactly 1"},
		{"short history", func(r *SoakResult) { r.Devices[node]["soak-0"]-- }, fmt.Sprintf("decided %d of %d events", soakRounds-1, soakRounds)},
		{"device outside the script", func(r *SoakResult) { r.Devices[node]["soak-7"] = soakRounds }, "live nodes holding device soak-7: 1, outside the script"},
		{"second distinct entry", extra(func(e *obs.Entry) { e.UnixNanos++ }), fmt.Sprintf("entries for %s seq %d: 2, want exactly 1", first.Device, first.Seq)},
		{"identical migrated copy", extra(func(*obs.Entry) {}), ""},
		{"entry beyond the script", extra(func(e *obs.Entry) { e.Seq = soakRounds + 1 }), fmt.Sprintf("entries for %s seq %d: 1, outside the script", first.Device, soakRounds+1)},
		{"invalid trace ID", func(r *SoakResult) { r.Journal[0].TraceID = "not-a-trace" }, "invalid trace ID"},
		{"degraded entry without faults", extra(func(e *obs.Entry) { e.Degraded = true }), "journaled 1 degraded entries"},
		{"re-submission without faults", func(r *SoakResult) { r.Resubmits = 3 }, "made 3 re-submissions"},
		{"degraded entry and re-submission under faults", func(r *SoakResult) {
			extra(func(e *obs.Entry) { e.Degraded = true })(r)
			r.Resubmits, r.Faults = 3, 5
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := clone(ref)
			tc.corrupt(&got)
			vs := CheckSoak(ref, got)
			if tc.want == "" {
				if len(vs) > 0 {
					t.Fatalf("reported %q, want a clean verdict", vs)
				}
				return
			}
			if !slices.ContainsFunc(vs, func(v string) bool { return strings.Contains(v, tc.want) }) {
				t.Fatalf("violations %q do not report %q", vs, tc.want)
			}
		})
	}
}

// clone deep-copies the parts of a result the corruptions edit.
func clone(r SoakResult) SoakResult {
	out := r
	out.Decisions = make([][]string, len(r.Decisions))
	for d := range r.Decisions {
		out.Decisions[d] = slices.Clone(r.Decisions[d])
	}
	out.Devices = make(map[string]map[string]int64)
	for node, held := range r.Devices {
		out.Devices[node] = maps.Clone(held)
	}
	out.Journal = slices.Clone(r.Journal)
	return out
}
