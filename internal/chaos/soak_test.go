package chaos_test

// The chaos soak: the same fleet of devices replays the same QoS event
// scripts twice on the fleettest soak harness — once fault-free, once
// on a node under the full fault schedule (transport drops, corrupted
// bodies, server rejections, stalled and corrupted decision paths) —
// and fleettest.CheckSoak must find both passes clean: no device state
// lost, every event answered byte-identically to the fault-free run
// (retries mask faults; they never change outcomes), and every
// (device, seq) explained by exactly one non-degraded journal entry
// under a valid trace ID — at-least-once delivery, exactly-once
// explanation.
//
// On failure the journal is dumped as JSON to the path named by the
// OBS_JOURNAL_ARTIFACT environment variable (CI uploads it).
//
// Everything is seeded: the event scripts, the client's retry jitter
// and the fault schedule, so a failure reproduces exactly.

import (
	"context"
	"net/http"
	"os"
	"testing"
	"time"

	"clrdse/internal/chaos"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

const (
	soakSpecSeed  = 7
	soakChaosSeed = 99
	soakDecideTO  = 200 * time.Millisecond
)

// soakPass runs the soak's uRA fleet through scripts on one node,
// faulted by inj when it is non-nil.
func soakPass(t *testing.T, scripts [][]runtime.QoSSpec, inj *chaos.Injector) fleettest.SoakResult {
	t.Helper()
	newClient := func(urls []string) fleettest.SoakClient {
		var rt http.RoundTripper
		if inj != nil {
			rt = &chaos.Transport{Injector: inj}
		}
		return client.New(client.Config{
			BaseURL:        urls[0],
			Transport:      rt,
			MaxAttempts:    6,
			AttemptTimeout: 2 * time.Second,
			JitterSeed:     soakSpecSeed,
			RetryDegraded:  true,
			// The soak injects 503s on purpose; an eager breaker would
			// only add rejection noise between retries.
			BreakerThreshold: 1 << 20,
		})
	}
	opt := fleettest.ClusterOptions{
		Nodes: 1, Databases: fleettest.Databases(t), DecideTimeout: soakDecideTO, Injector: inj,
	}
	res, err := fleettest.RunSoak(context.Background(), opt, newClient, 0, scripts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChaosSoak(t *testing.T) {
	devices, events := 8, 30
	if testing.Short() {
		devices, events = 4, 12
	}
	scripts := fleettest.SplitScripts(fleettest.Databases(t)[0].DB, soakSpecSeed, devices, events)
	ref := soakPass(t, scripts, nil)

	inj := chaos.New(chaos.Config{
		Seed:              soakChaosSeed,
		PDropRequest:      0.05,
		PLatency:          0.05,
		PDropResponse:     0.05,
		PTruncateResponse: 0.04,
		PMangleResponse:   0.04,
		LatencyMin:        time.Millisecond,
		LatencyMax:        5 * time.Millisecond,
		PReject:           0.06,
		PServerLatency:    0.05,
		PStall:            0.05,
		PCorrupt:          0.05,
		StallMin:          2 * soakDecideTO,
		StallMax:          3 * soakDecideTO,
	})
	cha := soakPass(t, scripts, inj)
	if cha.Faults == 0 {
		t.Fatal("chaos pass injected no faults; the soak tested nothing")
	}

	for _, v := range fleettest.CheckSoak(ref, ref) {
		t.Errorf("fault-free: %s", v)
	}
	for _, v := range fleettest.CheckSoak(ref, cha) {
		t.Errorf("chaos: %s", v)
	}
	if path := os.Getenv("OBS_JOURNAL_ARTIFACT"); path != "" && t.Failed() {
		if err := obs.WriteJournal(path, cha.Journal); err != nil {
			t.Errorf("writing journal artifact: %v", err)
		} else {
			t.Logf("decision journal (%d entries) written to %s", len(cha.Journal), path)
		}
	}

	t.Logf("faults=%d resubmits=%d journal=%d", cha.Faults, cha.Resubmits, len(cha.Journal))
}

// TestChaosSoakReproducible: the fault schedule itself is seeded — two
// injectors with the soak's configuration must report identical
// per-kind counts after identical traffic. (The full soak is too
// timing-dependent for exact count equality across passes, but the
// verdict function must be pure; see TestInjectorDeterministic for the
// stream-level property.)
func TestChaosSoakReproducible(t *testing.T) {
	cfg := chaos.Config{Seed: soakChaosSeed, PReject: 0.3, PServerLatency: 0.1}
	a, b := chaos.New(cfg), chaos.New(cfg)
	for n := 0; n < 1000; n++ {
		fa := a.Sample(chaos.ScopeServer, "POST /v1/devices/soak-0/qos")
		fb := b.Sample(chaos.ScopeServer, "POST /v1/devices/soak-0/qos")
		if fa != fb {
			t.Fatalf("fault schedule not reproducible at #%d: %v != %v", n, fa, fb)
		}
	}
}
